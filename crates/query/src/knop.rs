//! The optimal multistep k-NN algorithm (Figure 11 of the paper, after
//! Seidl & Kriegel's KNOP) and the corresponding complete range query.
//!
//! Both consume a lower-bounding filter [`Ranking`] and refine candidates
//! with the exact distance. KNOP is *optimal* in the number of
//! refinements: it refines exactly the objects whose filter distance does
//! not exceed the k-th exact nearest-neighbor distance — no multistep
//! algorithm using the same filter can refine fewer (see \[18\]).
//!
//! This module is the **only** implementation of the refinement loop in
//! the workspace; every entry point — static plans,
//! [`DynamicIndex`](crate::DynamicIndex), the brute-force oracles — runs
//! it through [`Executor::run`](crate::Executor::run).
//!
//! Both loops run under an execution [`Budget`]: they probe it between
//! candidates (three `Option` tests for `Budget::unlimited()`), and the
//! rankings and the refiner probe it inside every solver call. When it
//! fires the result is [`QueryOutcome::Degraded`] — refined results with
//! their exact distances plus every already-computed lower bound — never
//! an error and never a silently truncated "exact" answer.
//!
//! The loop itself holds no solver state: consecutive refinements of the
//! same query warm-start each other because the *prepared refiner* (and
//! each solver-backed filter stage) carries a per-query `EmdContext`
//! that reuses the transport workspace and the basis the previous
//! candidate's solve ended on across `distance` calls.
//!
//! ## Threshold-aware refinement
//!
//! Once k neighbors are known, a refinement only has to decide whether
//! the candidate beats the current k-th distance (for a range query:
//! whether it is within ε); all but k of them end in "no". Both loops
//! therefore refine through [`PreparedFilter::distance_within`], passing
//! that threshold as the cutoff: a refiner that can prove
//! `distance > cutoff` early answers [`Bounded::Above`] and the candidate
//! is skipped without its exact distance. The bound is *strictly* above
//! the cutoff, so a candidate tied with the k-th (or exactly at ε) is
//! always solved and the `distance < kth` / `distance <= epsilon` rules
//! decide it as before; a skipped candidate is missing from a degraded
//! outcome too — its bound exceeds every kept neighbor (or ε). A cut
//! solve still counts as a refinement ([`Refinements::cut`] says how
//! many were cut).

use crate::error::QueryError;
use crate::filters::PreparedFilter;
use crate::outcome::{sort_candidates, Candidate, DegradedResult, QueryOutcome};
use crate::ranking::Ranking;
use crate::Neighbor;
use emd_core::{Bounded, Budget, BudgetReason};

/// Exact solves a refinement loop started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Refinements {
    /// Every solve started, whether it ran to the exact distance or not.
    pub total: usize,
    /// The subset a cutoff ended early with [`Bounded::Above`].
    pub cut: usize,
}

/// Builds the degraded candidate ranking at the moment a budget fired:
/// refined neighbors keep their exact distance (`exact: true`), the
/// candidate whose refinement was interrupted and every already-computed
/// filter bound still inside the ranking join with `exact: false`. Sorted
/// ascending by bound, ties by id.
fn degraded_candidates(
    refined: &[Neighbor],
    pending: Option<(usize, f64)>,
    ranking: &mut dyn Ranking,
) -> Vec<Candidate> {
    let mut candidates: Vec<Candidate> = refined
        .iter()
        .map(|n| Candidate {
            id: n.id,
            bound: n.distance,
            exact: true,
        })
        .collect();
    if let Some((id, bound)) = pending {
        candidates.push(Candidate {
            id,
            bound,
            exact: false,
        });
    }
    candidates.extend(
        ranking
            .drain_computed()
            .into_iter()
            .map(|(id, bound)| Candidate {
                id,
                bound,
                exact: false,
            }),
    );
    sort_candidates(&mut candidates);
    candidates
}

/// k-NN by filter ranking + refinement (Figure 11).
///
/// Returns the exact k nearest neighbors in ascending distance order and
/// the number of refinements performed. Completeness requires `ranking`'s
/// distances to lower-bound `refiner`'s.
///
/// When `budget` fires (checked between candidates here, and inside every
/// solver call by the prepared filters) the outcome is
/// [`QueryOutcome::Degraded`] carrying the current candidate ranking —
/// refined results with exact distances, unrefined candidates with their
/// tightest computed lower bound — truncated to the best `k`.
///
/// # Errors
///
/// Returns [`QueryError::ZeroK`] for `k = 0` and propagates non-budget
/// ranking or refiner failures; budget exhaustion is *not* an error but a
/// degraded outcome.
pub fn knn(
    ranking: &mut dyn Ranking,
    refiner: &mut dyn PreparedFilter,
    k: usize,
    budget: &Budget,
) -> Result<(QueryOutcome, Refinements), QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    let degrade = |reason: BudgetReason,
                   mut refined: Vec<Neighbor>,
                   pending: Option<(usize, f64)>,
                   ranking: &mut dyn Ranking| {
        refined.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        let mut candidates = degraded_candidates(&refined, pending, ranking);
        candidates.truncate(k);
        QueryOutcome::Degraded(DegradedResult { candidates, reason })
    };
    let mut neighbors: Vec<Neighbor> = Vec::with_capacity(k + 1);
    let mut refinements = Refinements::default();

    // Phase 1: refine k initial candidates from the ranking.
    while neighbors.len() < k {
        if let Err(reason) = budget.check() {
            return Ok((degrade(reason, neighbors, None, ranking), refinements));
        }
        let pulled = match ranking.next() {
            Ok(pulled) => pulled,
            Err(QueryError::BudgetExhausted(reason)) => {
                return Ok((degrade(reason, neighbors, None, ranking), refinements));
            }
            Err(e) => return Err(e),
        };
        let Some((id, filter_distance)) = pulled else {
            neighbors.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
            return Ok((QueryOutcome::Exact(neighbors), refinements));
        };
        let distance = match refiner.distance(id) {
            Ok(distance) => distance,
            Err(QueryError::BudgetExhausted(reason)) => {
                let pending = Some((id, filter_distance));
                return Ok((degrade(reason, neighbors, pending, ranking), refinements));
            }
            Err(e) => return Err(e),
        };
        refinements.total += 1;
        emd_core::certify::debug_check_lower_bound("knn filter ranking", filter_distance, distance);
        neighbors.push(Neighbor { id, distance });
    }
    neighbors.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));

    // Phase 2: keep pulling while the filter distance can still beat the
    // current k-th exact distance, which is all a refinement has to beat.
    loop {
        if let Err(reason) = budget.check() {
            return Ok((degrade(reason, neighbors, None, ranking), refinements));
        }
        let pulled = match ranking.next() {
            Ok(pulled) => pulled,
            Err(QueryError::BudgetExhausted(reason)) => {
                return Ok((degrade(reason, neighbors, None, ranking), refinements));
            }
            Err(e) => return Err(e),
        };
        let Some((id, filter_distance)) = pulled else {
            break;
        };
        // bounds: phase 1 established neighbors.len() == k >= 1
        let kth = neighbors[k - 1].distance;
        if filter_distance > kth {
            break;
        }
        let refined = match refiner.distance_within(id, kth) {
            Ok(refined) => refined,
            Err(QueryError::BudgetExhausted(reason)) => {
                let pending = Some((id, filter_distance));
                return Ok((degrade(reason, neighbors, pending, ranking), refinements));
            }
            Err(e) => return Err(e),
        };
        refinements.total += 1;
        let Bounded::Optimal(distance) = refined else {
            refinements.cut += 1;
            continue;
        };
        emd_core::certify::debug_check_lower_bound("knn filter ranking", filter_distance, distance);
        if distance < kth {
            let position = neighbors.partition_point(|n| n.distance <= distance);
            neighbors.insert(position, Neighbor { id, distance });
            neighbors.pop();
        }
    }
    Ok((QueryOutcome::Exact(neighbors), refinements))
}

/// Complete range query: all objects with exact distance `<= epsilon`.
///
/// Pulls candidates while their filter distance is within `epsilon`
/// (lower-bounding ⇒ nothing beyond can qualify), refines each, and keeps
/// the true hits, sorted ascending. See [`knn`] for the degradation model;
/// degraded candidates are limited to those whose bound is within
/// `epsilon` (no other object can be a hit).
///
/// # Errors
///
/// Propagates non-budget ranking or refiner failures; budget exhaustion is
/// a degraded outcome, not an error.
pub fn range(
    ranking: &mut dyn Ranking,
    refiner: &mut dyn PreparedFilter,
    epsilon: f64,
    budget: &Budget,
) -> Result<(QueryOutcome, Refinements), QueryError> {
    let degrade = |reason: BudgetReason,
                   mut hits: Vec<Neighbor>,
                   pending: Option<(usize, f64)>,
                   ranking: &mut dyn Ranking| {
        hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        let mut candidates = degraded_candidates(&hits, pending, ranking);
        candidates.retain(|c| c.bound <= epsilon);
        QueryOutcome::Degraded(DegradedResult { candidates, reason })
    };
    let mut hits: Vec<Neighbor> = Vec::new();
    let mut refinements = Refinements::default();
    loop {
        if let Err(reason) = budget.check() {
            return Ok((degrade(reason, hits, None, ranking), refinements));
        }
        let pulled = match ranking.next() {
            Ok(pulled) => pulled,
            Err(QueryError::BudgetExhausted(reason)) => {
                return Ok((degrade(reason, hits, None, ranking), refinements));
            }
            Err(e) => return Err(e),
        };
        let Some((id, filter_distance)) = pulled else {
            break;
        };
        if filter_distance > epsilon {
            break;
        }
        let refined = match refiner.distance_within(id, epsilon) {
            Ok(refined) => refined,
            Err(QueryError::BudgetExhausted(reason)) => {
                let pending = Some((id, filter_distance));
                return Ok((degrade(reason, hits, pending, ranking), refinements));
            }
            Err(e) => return Err(e),
        };
        refinements.total += 1;
        let Bounded::Optimal(distance) = refined else {
            refinements.cut += 1;
            continue;
        };
        emd_core::certify::debug_check_lower_bound(
            "range filter ranking",
            filter_distance,
            distance,
        );
        if distance <= epsilon {
            hits.push(Neighbor { id, distance });
        }
    }
    hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
    Ok((QueryOutcome::Exact(hits), refinements))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully materialized ranking over a table of filter distances.
    struct TableRanking {
        /// Sorted descending so `pop` yields ascending.
        sorted: Vec<(usize, f64)>,
    }

    impl TableRanking {
        fn new(table: &[f64]) -> Self {
            let mut sorted: Vec<(usize, f64)> = table.iter().copied().enumerate().collect();
            sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(b.0.cmp(&a.0)));
            TableRanking { sorted }
        }
    }

    impl Ranking for TableRanking {
        fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
            Ok(self.sorted.pop())
        }
        fn drain_computed(&mut self) -> Vec<(usize, f64)> {
            std::mem::take(&mut self.sorted)
        }
    }

    /// A refiner backed by a table of exact distances that reports budget
    /// exhaustion starting at the `fail_from`-th call.
    struct TableRefiner<'a> {
        table: &'a [f64],
        evaluations: usize,
        fail_from: usize,
    }

    impl<'a> TableRefiner<'a> {
        fn new(table: &'a [f64]) -> Self {
            TableRefiner {
                table,
                evaluations: 0,
                fail_from: usize::MAX,
            }
        }
    }

    impl PreparedFilter for TableRefiner<'_> {
        fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
            self.evaluations += 1;
            if self.evaluations >= self.fail_from {
                return Err(QueryError::BudgetExhausted(BudgetReason::PivotCap));
            }
            self.table
                .get(id)
                .copied()
                .ok_or(QueryError::UnknownObject(id))
        }
        fn evaluations(&self) -> usize {
            self.evaluations
        }
    }

    /// A refiner that, asked for a distance within a cutoff, proves
    /// "above" whenever the table allows it — the most eager cutter a
    /// sound refiner can be — and reports budget exhaustion starting at
    /// the `fail_from`-th call.
    struct CuttingRefiner<'a>(TableRefiner<'a>);

    impl PreparedFilter for CuttingRefiner<'_> {
        fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
            self.0.distance(id)
        }
        fn distance_within(&mut self, id: usize, cutoff: f64) -> Result<Bounded, QueryError> {
            let distance = self.0.distance(id)?;
            Ok(if distance > cutoff {
                Bounded::Above(distance)
            } else {
                Bounded::Optimal(distance)
            })
        }
        fn evaluations(&self) -> usize {
            self.0.evaluations()
        }
    }

    /// EXACT[i] >= FILTER[i] everywhere: a valid lower-bounding filter.
    const FILTER: [f64; 6] = [2.0, 0.5, 3.0, 0.0, 1.0, 4.5];
    const EXACT: [f64; 6] = [2.5, 1.5, 3.0, 0.2, 2.8, 5.0];

    fn exact_knn(objects: usize, k: usize) -> (Vec<Neighbor>, usize) {
        let mut ranking = TableRanking::new(&FILTER[..objects]);
        let mut refiner = TableRefiner::new(&EXACT);
        let (outcome, refinements) =
            knn(&mut ranking, &mut refiner, k, &Budget::unlimited()).unwrap();
        (
            outcome.exact().expect("unlimited").to_vec(),
            refinements.total,
        )
    }

    fn exact_range(epsilon: f64) -> (Vec<Neighbor>, usize) {
        let mut ranking = TableRanking::new(&FILTER);
        let mut refiner = TableRefiner::new(&EXACT);
        let (outcome, refinements) =
            range(&mut ranking, &mut refiner, epsilon, &Budget::unlimited()).unwrap();
        (
            outcome.exact().expect("unlimited").to_vec(),
            refinements.total,
        )
    }

    #[test]
    fn knn_returns_true_neighbors() {
        let (neighbors, refinements) = exact_knn(6, 3);
        let ids: Vec<_> = neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 1, 0], "true 3-NN by exact distance");
        // Optimality: object 5 (filter 4.5 > kth exact 2.5) is never
        // refined; object 2 and 4 must be (filter <= 2.5).
        assert!(refinements <= 5);
        assert!(refinements >= 3);
    }

    #[test]
    fn knn_handles_small_database() {
        let (neighbors, _) = exact_knn(2, 5);
        assert_eq!(neighbors.len(), 2);
        assert!(neighbors[0].distance <= neighbors[1].distance);
    }

    #[test]
    fn knn_distances_ascending() {
        let (neighbors, _) = exact_knn(6, 6);
        for pair in neighbors.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
        }
        assert_eq!(neighbors.len(), 6);
    }

    #[test]
    fn range_returns_exactly_the_hits() {
        let (hits, refinements) = exact_range(2.5);
        let ids: Vec<_> = hits.iter().map(|n| n.id).collect();
        // exact <= 2.5: objects 3 (0.2), 1 (1.5), 0 (2.5). Object 4 has
        // filter 1.0 <= 2.5 but exact 2.8: refined yet rejected.
        assert_eq!(ids, vec![3, 1, 0]);
        assert_eq!(refinements, 4);
    }

    #[test]
    fn range_with_zero_epsilon() {
        let (hits, _) = exact_range(0.0);
        assert!(hits.is_empty(), "no exact distance is 0.0");
    }

    #[test]
    fn cut_refinements_leave_answers_and_counts_alone() {
        for k in 1..=6 {
            let (expected, expected_refinements) = exact_knn(6, k);
            let mut ranking = TableRanking::new(&FILTER);
            let mut refiner = CuttingRefiner(TableRefiner::new(&EXACT));
            let (outcome, refinements) =
                knn(&mut ranking, &mut refiner, k, &Budget::unlimited()).unwrap();
            assert_eq!(outcome.exact().expect("unlimited"), expected);
            assert_eq!(refinements.total, expected_refinements);
            // Every refinement that did not end up in the answer was
            // above the k-th distance of its moment, except those that
            // entered and were evicted later.
            assert!(refinements.cut <= refinements.total - expected.len());
        }
        // k = 2: objects 3 and 1 seed the answer (k-th 1.5); object 4
        // (filter 1.0, exact 2.8) is refined and cut; object 0's filter
        // distance ends the loop.
        let mut ranking = TableRanking::new(&FILTER);
        let mut refiner = CuttingRefiner(TableRefiner::new(&EXACT));
        let (_, refinements) = knn(&mut ranking, &mut refiner, 2, &Budget::unlimited()).unwrap();
        assert_eq!(refinements, Refinements { total: 3, cut: 1 });

        for epsilon in [0.0, 0.2, 2.5, 2.8, 10.0] {
            let (expected, expected_refinements) = exact_range(epsilon);
            let mut ranking = TableRanking::new(&FILTER);
            let mut refiner = CuttingRefiner(TableRefiner::new(&EXACT));
            let (outcome, refinements) =
                range(&mut ranking, &mut refiner, epsilon, &Budget::unlimited()).unwrap();
            assert_eq!(outcome.exact().expect("unlimited"), expected);
            assert_eq!(refinements.total, expected_refinements);
            assert_eq!(refinements.cut, refinements.total - expected.len());
        }
    }

    #[test]
    fn a_candidate_tied_with_the_kth_is_solved_not_cut() {
        // Objects 0 and 1 tie at 1.0; with k = 1 the later one meets a
        // cutoff equal to its own distance, which no bound can exceed.
        let filter = [0.0, 0.5, 0.9];
        let exact = [1.0, 1.0, 4.0];
        let mut ranking = TableRanking::new(&filter);
        let mut refiner = CuttingRefiner(TableRefiner::new(&exact));
        let (outcome, refinements) =
            knn(&mut ranking, &mut refiner, 1, &Budget::unlimited()).unwrap();
        let neighbors = outcome.exact().expect("unlimited");
        assert_eq!(neighbors.len(), 1);
        assert_eq!(neighbors[0].id, 0, "`distance < kth` keeps the first");
        assert_eq!(refinements, Refinements { total: 3, cut: 1 });
    }

    #[test]
    fn cut_candidates_stay_out_of_degraded_outcomes() {
        // k = 2: objects 0 and 1 seed the answer (k-th 2.0), object 2 is
        // cut, object 3's refinement exhausts the budget. Had object 2
        // stayed in as a pending bound (0.2) it would lead the ranking.
        let filter = [0.0, 0.1, 0.2, 0.3, 0.4];
        let exact = [1.0, 2.0, 5.0, 1.5, 1.7];
        let mut ranking = TableRanking::new(&filter);
        let mut refiner = CuttingRefiner(TableRefiner {
            fail_from: 4,
            ..TableRefiner::new(&exact)
        });
        let (outcome, refinements) =
            knn(&mut ranking, &mut refiner, 2, &Budget::unlimited()).unwrap();
        assert_eq!(refinements, Refinements { total: 3, cut: 1 });
        let degraded = outcome.degraded().expect("must degrade");
        let ids: Vec<_> = degraded.candidates.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![3, 4]);

        let mut ranking = TableRanking::new(&FILTER);
        let mut refiner = CuttingRefiner(TableRefiner {
            fail_from: 4,
            ..TableRefiner::new(&EXACT)
        });
        let (outcome, refinements) =
            range(&mut ranking, &mut refiner, 2.5, &Budget::unlimited()).unwrap();
        // Range at 2.5 pulls 3, 1, 4 (cut: 2.8 > 2.5), 0 (exhausted).
        assert_eq!(refinements, Refinements { total: 3, cut: 1 });
        let degraded = outcome.degraded().expect("must degrade");
        assert!(degraded.candidates.iter().all(|c| c.id != 4));
        assert!(degraded.candidates.iter().any(|c| c.id == 0 && !c.exact));
    }

    #[test]
    fn knn_rejects_zero_k() {
        let mut ranking = TableRanking::new(&FILTER);
        let mut refiner = TableRefiner::new(&EXACT);
        assert!(matches!(
            knn(&mut ranking, &mut refiner, 0, &Budget::unlimited()),
            Err(QueryError::ZeroK)
        ));
    }

    #[test]
    fn cancelled_budget_degrades_before_any_refinement() {
        let mut ranking = TableRanking::new(&FILTER);
        let mut refiner = TableRefiner::new(&EXACT);
        let token = emd_core::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let (outcome, refinements) = knn(&mut ranking, &mut refiner, 3, &budget).unwrap();
        assert_eq!(refinements, Refinements::default());
        let degraded = outcome.degraded().expect("must degrade");
        assert_eq!(degraded.reason, BudgetReason::Cancelled);
        // Best 3 filter bounds: object 3 (0.0), 1 (0.5), 4 (1.0).
        let ids: Vec<_> = degraded.candidates.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![3, 1, 4]);
        assert!(degraded.candidates.iter().all(|c| !c.exact));
    }

    #[test]
    fn mid_refinement_exhaustion_keeps_exact_prefix() {
        let mut ranking = TableRanking::new(&FILTER);
        // First two refinements succeed, the third reports exhaustion.
        let mut refiner = TableRefiner {
            fail_from: 3,
            ..TableRefiner::new(&EXACT)
        };
        let (outcome, refinements) =
            knn(&mut ranking, &mut refiner, 4, &Budget::unlimited()).unwrap();
        assert_eq!(refinements.total, 2);
        let degraded = outcome.degraded().expect("must degrade");
        assert_eq!(degraded.reason, BudgetReason::PivotCap);
        assert_eq!(degraded.candidates.len(), 4);
        // Refined candidates (objects 3 and 1, exact 0.2 and 1.5) carry
        // exact distances; the rest are filter bounds.
        for candidate in &degraded.candidates {
            match candidate.id {
                3 => assert!(candidate.exact && (candidate.bound - 0.2).abs() < 1e-12),
                1 => assert!(candidate.exact && (candidate.bound - 1.5).abs() < 1e-12),
                _ => assert!(!candidate.exact),
            }
        }
        // Ordered ascending by bound.
        for pair in degraded.candidates.windows(2) {
            assert!(pair[0].bound <= pair[1].bound);
        }
    }

    #[test]
    fn budgeted_range_degrades_within_epsilon() {
        let mut ranking = TableRanking::new(&FILTER);
        let mut refiner = TableRefiner {
            fail_from: 2,
            ..TableRefiner::new(&EXACT)
        };
        let (outcome, refinements) =
            range(&mut ranking, &mut refiner, 2.5, &Budget::unlimited()).unwrap();
        assert_eq!(refinements.total, 1);
        let degraded = outcome.degraded().expect("must degrade");
        assert!(degraded.candidates.iter().all(|c| c.bound <= 2.5));
        assert!(degraded.candidates.iter().any(|c| c.exact));
    }
}
