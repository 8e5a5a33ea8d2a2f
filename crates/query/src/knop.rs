//! The optimal multistep k-NN algorithm (Figure 11 of the paper, after
//! Seidl & Kriegel's KNOP) and the corresponding complete range query:
//! one refinement loop under two result-set policies.
//!
//! The loop consumes a lower-bounding filter [`Ranking`] and refines
//! candidates with the exact distance: pull the next candidate, stop
//! when its filter distance exceeds the policy's *threshold* by more
//! than the plan's slack (a bound is admitted within it: see
//! [`QueryPlan`](crate::QueryPlan)), otherwise refine it against that
//! threshold and offer the result. A policy is a
//! `ResultSet` — at most the `k` nearest, none beyond `epsilon`:
//! [`knn`] is `(k, ∞)`, whose threshold is ∞ until k neighbors are held
//! and the k-th distance from then on; [`range`] is `(∞, ε)`, whose
//! threshold is ε from the first call. KNOP is *optimal* in the number
//! of refinements: it refines exactly the objects whose filter distance
//! does not exceed the k-th exact nearest-neighbor distance — no
//! multistep algorithm using the same filter can refine fewer (see
//! \[18\]).
//!
//! This module is the **only** implementation of the refinement loop in
//! the workspace; every entry point — static plans,
//! [`DurableIndex`](crate::DurableIndex), the brute-force oracles — runs
//! it through [`Executor::run`](crate::Executor::run).
//!
//! The loop runs under an execution [`Budget`]: it probes it between
//! candidates (three `Option` tests for `Budget::unlimited()`), and the
//! rankings and the refiner probe it inside every solver call. Wherever
//! it fires the result is [`QueryOutcome::Degraded`] — refined results
//! with their exact distances plus every already-computed lower bound —
//! never an error and never a silently truncated "exact" answer.
//!
//! The loop itself holds no solver state: consecutive refinements of the
//! same query warm-start each other because the *prepared refiner* (and
//! each solver-backed filter stage) carries a per-query `EmdContext`
//! that reuses the transport workspace and the basis the previous
//! candidate's solve ended on across `distance` calls.
//!
//! ## Threshold-aware refinement
//!
//! A refinement only has to decide whether the candidate meets the
//! threshold; once k neighbors are known, all but k of them end in "no".
//! The loop therefore refines through
//! [`PreparedFilter::distance_within`], passing the threshold as the
//! cutoff: a refiner that can prove `distance > cutoff` early answers
//! [`Bounded::Above`] and the candidate is skipped without its exact
//! distance. The bound is *strictly* above the cutoff, so a candidate
//! tied with the k-th (or exactly at ε) is always solved and the
//! `distance < kth` / `distance <= epsilon` rules decide it; a skipped
//! candidate is missing from a degraded outcome too — its bound exceeds
//! every kept neighbor (or ε). A cut solve still counts as a refinement
//! ([`Refinements::cut`] says how many were cut).

use crate::error::QueryError;
use crate::filters::PreparedFilter;
use crate::outcome::{sort_candidates, Candidate, DegradedResult, QueryOutcome};
use crate::ranking::Ranking;
use crate::Neighbor;
use emd_core::certify::debug_check_lower_bound;
use emd_core::{Bounded, Budget, BudgetReason};

/// Exact solves a refinement loop started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Refinements {
    /// Every solve started, whether it ran to the exact distance or not.
    pub total: usize,
    /// The subset a cutoff ended early with [`Bounded::Above`].
    pub cut: usize,
}

/// What a query keeps of the candidates the loop refines: at most the
/// `k` nearest, none beyond `epsilon`. Until `k` are held they are kept
/// as they come; from then on in ascending order, ties in arrival order.
struct ResultSet {
    k: usize,
    epsilon: f64,
    held: Vec<Neighbor>,
}

impl ResultSet {
    fn new(k: usize, epsilon: f64) -> Self {
        let held = Vec::new();
        ResultSet { k, epsilon, held }
    }

    /// Ascending by distance, ties by id: the order of an exact answer.
    fn sort(&mut self) {
        self.held
            .sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
    }

    /// The distance a candidate has to meet — ε until `k` are held, then
    /// the k-th distance: the loop ends at the first filter distance
    /// above it, and a refinement may stop above it.
    fn threshold(&self) -> f64 {
        let kth = self.held.get(self.k - 1);
        kth.map_or(self.epsilon, |neighbor| neighbor.distance)
    }

    /// Take a refined candidate in if it belongs: within ε while there is
    /// room, closer than the k-th — which it evicts — once there is not.
    fn offer(&mut self, neighbor: Neighbor) {
        if self.held.len() < self.k {
            if neighbor.distance <= self.epsilon {
                self.held.push(neighbor);
                if self.held.len() == self.k {
                    self.sort();
                }
            }
        } else if neighbor.distance < self.threshold() {
            let after = |n: &Neighbor| n.distance <= neighbor.distance;
            self.held.insert(self.held.partition_point(after), neighbor);
            self.held.pop();
        }
    }

    /// The degraded ranking at the moment a budget fired: held neighbors
    /// keep their exact distance (`exact: true`), the candidate whose
    /// refinement was interrupted and every already-computed filter
    /// bound still inside the ranking join with `exact: false`. Sorted
    /// ascending by bound, ties by id, and cut down to what the query
    /// could still return.
    fn degrade(&self, pending: Option<Candidate>, ranking: &mut dyn Ranking) -> Vec<Candidate> {
        let refined = self.held.iter().map(|n| Candidate {
            id: n.id,
            bound: n.distance,
            exact: true,
        });
        let mut candidates: Vec<Candidate> = refined.chain(pending).collect();
        let computed = ranking.drain_computed().into_iter();
        candidates.extend(computed.map(|(id, bound)| Candidate {
            id,
            bound,
            exact: false,
        }));
        sort_candidates(&mut candidates);
        candidates.retain(|c| c.bound <= self.epsilon);
        candidates.truncate(self.k);
        candidates
    }

    /// The exact answer, ascending.
    fn finish(mut self) -> Vec<Neighbor> {
        if self.held.len() < self.k {
            self.sort();
        }
        self.held
    }
}

/// The refinement loop: pull, stop above the threshold, refine within
/// it, offer. A budget firing at any of its three probe points — between
/// candidates, inside the ranking, inside the refiner — ends it in the
/// one [`ResultSet::degrade`] call at the bottom.
fn refine(
    ranking: &mut dyn Ranking,
    refiner: &mut dyn PreparedFilter,
    mut results: ResultSet,
    slack: f64,
    budget: &Budget,
) -> Result<(QueryOutcome, Refinements), QueryError> {
    let mut refinements = Refinements::default();
    let interrupted: Option<(BudgetReason, Option<Candidate>)> = loop {
        if let Err(reason) = budget.check() {
            break Some((reason, None));
        }
        let (id, bound) = match ranking.next() {
            Ok(Some(pulled)) => pulled,
            Ok(None) => break None,
            Err(QueryError::BudgetExhausted(reason)) => break Some((reason, None)),
            Err(e) => return Err(e),
        };
        let threshold = results.threshold();
        if bound > threshold + slack {
            break None;
        }
        let refined = match refiner.distance_within(id, threshold) {
            Ok(refined) => refined,
            Err(QueryError::BudgetExhausted(reason)) => {
                let pending = Candidate {
                    id,
                    bound,
                    exact: false,
                };
                break Some((reason, Some(pending)));
            }
            Err(e) => return Err(e),
        };
        refinements.total += 1;
        match refined {
            Bounded::Optimal(distance) => {
                debug_check_lower_bound("filter ranking", bound, distance, slack);
                results.offer(Neighbor { id, distance });
            }
            Bounded::Above(_) => refinements.cut += 1,
        }
    };
    let outcome = match interrupted {
        None => QueryOutcome::Exact(results.finish()),
        Some((reason, pending)) => QueryOutcome::Degraded(DegradedResult {
            candidates: results.degrade(pending, ranking),
            reason,
        }),
    };
    Ok((outcome, refinements))
}

/// k-NN by filter ranking + refinement (Figure 11).
///
/// Returns the exact k nearest neighbors in ascending distance order and
/// the number of refinements performed. Completeness requires `ranking`'s
/// distances to lower-bound `refiner`'s within `slack`, the margin a
/// candidate is discarded with.
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
    slack: f64,
    budget: &Budget,
) -> Result<(QueryOutcome, Refinements), QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    let results = ResultSet::new(k, f64::INFINITY);
    refine(ranking, refiner, results, slack, budget)
}

/// Complete range query: all objects with exact distance `<= epsilon`.
///
/// Pulls candidates while their filter distance is within `epsilon` plus
/// `slack` (lower-bounding ⇒ nothing beyond can qualify), refines each,
/// and keeps the true hits, sorted ascending. See [`knn`] for `slack`
/// and the degradation model;
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
    slack: f64,
    budget: &Budget,
) -> Result<(QueryOutcome, Refinements), QueryError> {
    let results = ResultSet::new(usize::MAX, epsilon);
    refine(ranking, refiner, results, slack, budget)
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
            knn(&mut ranking, &mut refiner, k, 0.0, &Budget::unlimited()).unwrap();
        (
            outcome.exact().expect("unlimited").to_vec(),
            refinements.total,
        )
    }

    fn exact_range(epsilon: f64) -> (Vec<Neighbor>, usize) {
        let mut ranking = TableRanking::new(&FILTER);
        let mut refiner = TableRefiner::new(&EXACT);
        let (outcome, refinements) = range(
            &mut ranking,
            &mut refiner,
            epsilon,
            0.0,
            &Budget::unlimited(),
        )
        .unwrap();
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
                knn(&mut ranking, &mut refiner, k, 0.0, &Budget::unlimited()).unwrap();
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
        let (_, refinements) =
            knn(&mut ranking, &mut refiner, 2, 0.0, &Budget::unlimited()).unwrap();
        assert_eq!(refinements, Refinements { total: 3, cut: 1 });

        for epsilon in [0.0, 0.2, 2.5, 2.8, 10.0] {
            let (expected, expected_refinements) = exact_range(epsilon);
            let mut ranking = TableRanking::new(&FILTER);
            let mut refiner = CuttingRefiner(TableRefiner::new(&EXACT));
            let (outcome, refinements) = range(
                &mut ranking,
                &mut refiner,
                epsilon,
                0.0,
                &Budget::unlimited(),
            )
            .unwrap();
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
            knn(&mut ranking, &mut refiner, 1, 0.0, &Budget::unlimited()).unwrap();
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
            knn(&mut ranking, &mut refiner, 2, 0.0, &Budget::unlimited()).unwrap();
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
            range(&mut ranking, &mut refiner, 2.5, 0.0, &Budget::unlimited()).unwrap();
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
            knn(&mut ranking, &mut refiner, 0, 0.0, &Budget::unlimited()),
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
        let (outcome, refinements) = knn(&mut ranking, &mut refiner, 3, 0.0, &budget).unwrap();
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
            knn(&mut ranking, &mut refiner, 4, 0.0, &Budget::unlimited()).unwrap();
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
            range(&mut ranking, &mut refiner, 2.5, 0.0, &Budget::unlimited()).unwrap();
        assert_eq!(refinements.total, 1);
        let degraded = outcome.degraded().expect("must degrade");
        assert!(degraded.candidates.iter().all(|c| c.bound <= 2.5));
        assert!(degraded.candidates.iter().any(|c| c.exact));
    }

    /// k-NN or range: the two policies over the one loop.
    #[derive(Debug, Clone, Copy)]
    enum Policy {
        Knn(usize),
        Range(f64),
    }

    /// Where a budget fires: the loop's three probe points.
    #[derive(Debug, Clone, Copy)]
    enum Probe {
        /// The loop's own check, after this many pulls.
        BetweenCandidates(usize),
        /// `Ranking::next` fails on this call (1-based).
        InsideNext(usize),
        /// The refiner fails on this call (1-based).
        InsideRefiner(usize),
    }

    /// A [`TableRanking`] that trips a cancel token after `cancel_after`
    /// pulls and reports exhaustion on call `fail_at`, keeping the
    /// candidate it was about to hand out.
    struct ProbedRanking {
        inner: TableRanking,
        calls: usize,
        cancel_after: usize,
        fail_at: usize,
        token: emd_core::CancelToken,
    }

    impl Ranking for ProbedRanking {
        fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
            self.calls += 1;
            if self.calls == self.fail_at {
                return Err(QueryError::BudgetExhausted(BudgetReason::PivotCap));
            }
            if self.calls == self.cancel_after {
                self.token.cancel();
            }
            self.inner.next()
        }
        fn drain_computed(&mut self) -> Vec<(usize, f64)> {
            self.inner.drain_computed()
        }
    }

    fn run_probed(
        policy: Policy,
        probe: Option<Probe>,
        filter: &[f64],
        exact: &[f64],
    ) -> (QueryOutcome, Refinements) {
        let token = emd_core::CancelToken::new();
        let mut ranking = ProbedRanking {
            inner: TableRanking::new(filter),
            calls: 0,
            cancel_after: usize::MAX,
            fail_at: usize::MAX,
            token: token.clone(),
        };
        let mut refiner = CuttingRefiner(TableRefiner::new(exact));
        match probe {
            Some(Probe::BetweenCandidates(pulls)) => ranking.cancel_after = pulls,
            Some(Probe::InsideNext(call)) => ranking.fail_at = call,
            Some(Probe::InsideRefiner(call)) => refiner.0.fail_from = call,
            None => {}
        }
        let budget = Budget::unlimited().with_cancel(token);
        match policy {
            Policy::Knn(k) => knn(&mut ranking, &mut refiner, k, 0.0, &budget),
            Policy::Range(epsilon) => range(&mut ranking, &mut refiner, epsilon, 0.0, &budget),
        }
        .unwrap()
    }

    #[test]
    fn one_loop_serves_both_policies() {
        // Exact answers: (policy, filter, exact, ids, refinements).
        type ExactCase<'a> = (Policy, &'a [f64], &'a [f64], &'a [usize], Refinements);
        let tied_filter = [0.0, 0.5, 0.9];
        let tied_exact = [1.0, 1.0, 4.0];
        let refinements = |total, cut| Refinements { total, cut };
        let exact_cases: [ExactCase<'_>; 6] = [
            // Fewer than k objects: all of them, ascending, nothing cut
            // (the threshold never leaves ∞).
            (
                Policy::Knn(5),
                &FILTER[..2],
                &EXACT,
                &[1, 0],
                refinements(2, 0),
            ),
            (
                Policy::Range(9.0),
                &FILTER[..2],
                &EXACT,
                &[1, 0],
                refinements(2, 0),
            ),
            // A tie at d_k is solved, not cut, and `<` keeps the first
            // arrival; the far object is refined (filter 0.9 <= 1.0) and cut.
            (
                Policy::Knn(1),
                &tied_filter,
                &tied_exact,
                &[0],
                refinements(3, 1),
            ),
            // Exactly ε is solved and `<=` keeps it.
            (
                Policy::Range(1.0),
                &tied_filter,
                &tied_exact,
                &[0, 1],
                refinements(3, 1),
            ),
            // A cut refinement counts in both totals.
            (Policy::Knn(2), &FILTER, &EXACT, &[3, 1], refinements(3, 1)),
            (
                Policy::Range(2.5),
                &FILTER,
                &EXACT,
                &[3, 1, 0],
                refinements(4, 1),
            ),
        ];
        for (policy, filter, exact, ids, expected) in exact_cases {
            let (outcome, refinements) = run_probed(policy, None, filter, exact);
            let neighbors = outcome.exact().expect("no probe fires");
            let got: Vec<usize> = neighbors.iter().map(|n| n.id).collect();
            assert_eq!(got, ids, "{policy:?}");
            assert_eq!(refinements, expected, "{policy:?}");
            for n in neighbors {
                assert_eq!(n.distance.to_bits(), exact[n.id].to_bits());
            }
        }

        // A budget firing at each probe point, in either k-NN phase and
        // in a range query: the degraded rankings the three hand-written
        // loops this one replaced produced.
        type Ranked<'a> = &'a [(usize, f64, bool)];
        let cancelled = BudgetReason::Cancelled;
        let pivot_cap = BudgetReason::PivotCap;
        let (knn3, range25) = (Policy::Knn(3), Policy::Range(2.5));
        #[rustfmt::skip]
        let degraded_cases: [(Policy, Probe, BudgetReason, Refinements, Ranked<'_>); 12] = [
            (knn3, Probe::BetweenCandidates(2), cancelled, refinements(2, 0), &[(3, 0.2, true), (4, 1.0, false), (1, 1.5, true)]),
            (knn3, Probe::BetweenCandidates(4), cancelled, refinements(4, 0), &[(3, 0.2, true), (1, 1.5, true), (0, 2.5, true)]),
            (knn3, Probe::InsideNext(2), pivot_cap, refinements(1, 0), &[(3, 0.2, true), (1, 0.5, false), (4, 1.0, false)]),
            (knn3, Probe::InsideNext(4), pivot_cap, refinements(3, 0), &[(3, 0.2, true), (1, 1.5, true), (0, 2.0, false)]),
            (knn3, Probe::InsideRefiner(2), pivot_cap, refinements(1, 0), &[(3, 0.2, true), (1, 0.5, false), (4, 1.0, false)]),
            (knn3, Probe::InsideRefiner(4), pivot_cap, refinements(3, 0), &[(3, 0.2, true), (1, 1.5, true), (0, 2.0, false)]),
            (range25, Probe::BetweenCandidates(2), cancelled, refinements(2, 0), &[(3, 0.2, true), (4, 1.0, false), (1, 1.5, true), (0, 2.0, false)]),
            (range25, Probe::BetweenCandidates(4), cancelled, refinements(4, 1), &[(3, 0.2, true), (1, 1.5, true), (0, 2.5, true)]),
            (range25, Probe::InsideNext(2), pivot_cap, refinements(1, 0), &[(3, 0.2, true), (1, 0.5, false), (4, 1.0, false), (0, 2.0, false)]),
            (range25, Probe::InsideNext(4), pivot_cap, refinements(3, 1), &[(3, 0.2, true), (1, 1.5, true), (0, 2.0, false)]),
            (range25, Probe::InsideRefiner(2), pivot_cap, refinements(1, 0), &[(3, 0.2, true), (1, 0.5, false), (4, 1.0, false), (0, 2.0, false)]),
            (range25, Probe::InsideRefiner(4), pivot_cap, refinements(3, 1), &[(3, 0.2, true), (1, 1.5, true), (0, 2.0, false)]),
        ];
        for (policy, probe, reason, expected, ranked) in degraded_cases {
            let (outcome, refinements) = run_probed(policy, Some(probe), &FILTER, &EXACT);
            let degraded = outcome.degraded().expect("the probe fires");
            assert_eq!(degraded.reason, reason, "{policy:?} {probe:?}");
            assert_eq!(refinements, expected, "{policy:?} {probe:?}");
            let got: Vec<(usize, f64, bool)> = degraded
                .candidates
                .iter()
                .map(|c| (c.id, c.bound, c.exact))
                .collect();
            assert_eq!(got, ranked, "{policy:?} {probe:?}");
        }
    }
}
