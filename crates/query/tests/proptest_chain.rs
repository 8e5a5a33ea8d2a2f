//! The chain condition, by construction: a chain of lower bounds that do
//! **not** bound one another — tables drawn at random below the exact
//! distances, stacked in any order — is complete, because
//! [`ChainedRanking`] keys every candidate by the running max of what has
//! been computed for it. The keys come out non-decreasing and equal to
//! the largest bound any stage holds for the object; KNOP over the chain
//! returns the brute-force k-NN and range answers after exactly the
//! refinements the running max allows; and a budget firing at any
//! evaluation of any stage loses no candidate: what was emitted and what
//! is drained afterwards name every object once, at a bound that is still
//! a lower bound and never below the first stage's.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{Budget, BudgetReason};
use emd_query::knop;
use emd_query::ranking::{ChainedRanking, Ranking};
use emd_query::{Neighbor, PreparedFilter, QueryError, QueryOutcome};
use proptest::prelude::*;

const MAX_OBJECTS: usize = 20;
const MAX_STAGES: usize = 4;

/// A filter backed by a table, whose budget "fires" from the
/// `fail_from`-th evaluation on.
struct Table {
    values: Vec<f64>,
    evaluations: usize,
    fail_from: usize,
}

impl Table {
    fn new(values: Vec<f64>) -> Self {
        Table {
            values,
            evaluations: 0,
            fail_from: usize::MAX,
        }
    }
}

impl PreparedFilter for Table {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        if self.evaluations >= self.fail_from {
            return Err(QueryError::BudgetExhausted(BudgetReason::PivotCap));
        }
        self.evaluations += 1;
        self.values
            .get(id)
            .copied()
            .ok_or(QueryError::UnknownObject(id))
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

/// A materialized stage-1 scan of one table: ascending `(bound, id)`.
struct Scan(Vec<(usize, f64)>);

impl Scan {
    fn new(table: &[f64]) -> Self {
        let mut sorted: Vec<(usize, f64)> = table.iter().copied().enumerate().collect();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(b.0.cmp(&a.0)));
        Scan(sorted)
    }
}

impl Ranking for Scan {
    fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
        Ok(self.0.pop())
    }

    fn drain_computed(&mut self) -> Vec<(usize, f64)> {
        std::mem::take(&mut self.0)
    }
}

/// Exact distances and, per stage, a table of bounds at random fractions
/// of them: every table lower-bounds the exact distance, no table bounds
/// another.
fn corpus() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>)> {
    let exact = prop::collection::vec(0.01_f64..10.0, 2..MAX_OBJECTS);
    let fractions = prop::collection::vec(
        prop::collection::vec(0.0_f64..1.0, MAX_OBJECTS),
        1..=MAX_STAGES,
    );
    (exact, fractions).prop_map(|(exact, fractions)| {
        let tables = fractions
            .iter()
            .map(|stage| exact.iter().zip(stage).map(|(d, f)| d * f).collect())
            .collect();
        (exact, tables)
    })
}

/// The first table scanned, every further one chained on top.
fn chain<'a>(first: &[f64], rest: &'a mut [Table]) -> Box<dyn Ranking + 'a> {
    let mut ranking: Box<dyn Ranking + 'a> = Box::new(Scan::new(first));
    for filter in rest {
        ranking = Box::new(ChainedRanking::new(ranking, Box::new(filter)));
    }
    ranking
}

fn filters(tables: &[Vec<f64>]) -> Vec<Table> {
    tables.iter().skip(1).cloned().map(Table::new).collect()
}

/// The largest bound any stage holds for `id`.
fn running_max(tables: &[Vec<f64>], id: usize) -> f64 {
    tables.iter().map(|table| table[id]).fold(0.0, f64::max)
}

/// `(distance, id)` ascending: the order of an exact answer.
fn brute_force(exact: &[f64]) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = exact
        .iter()
        .enumerate()
        .map(|(id, &distance)| Neighbor { id, distance })
        .collect();
    all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drained to the end, the chain emits every object once, in
    /// non-decreasing key order, at the running max of all its stages.
    #[test]
    fn keys_are_the_running_max_and_never_decrease((exact, tables) in corpus()) {
        let mut rest = filters(&tables);
        let mut ranking = chain(&tables[0], &mut rest);
        let mut emitted = Vec::new();
        while let Some(item) = ranking.next().unwrap() {
            emitted.push(item);
        }
        prop_assert!(emitted.windows(2).all(|pair| pair[0].1 <= pair[1].1));
        let mut ids: Vec<usize> = emitted.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..exact.len()).collect::<Vec<_>>());
        for (id, key) in emitted {
            prop_assert_eq!(key.to_bits(), running_max(&tables, id).to_bits());
            prop_assert!(key <= exact[id]);
        }
    }

    /// KNOP over the chain: the brute-force k-NN and range answers, after
    /// refining exactly the objects whose running max is within the k-th
    /// distance (ε) — the optimum for the combined filter, at most what
    /// any one of its stages would have refined.
    #[test]
    fn knn_and_range_are_brute_force(
        (exact, tables) in corpus(),
        k in 1usize..8,
        epsilon in 0.0_f64..10.0,
    ) {
        let expected = brute_force(&exact);
        let within = |threshold: f64| {
            (0..exact.len()).filter(|&id| running_max(&tables, id) <= threshold).count()
        };

        let mut rest = filters(&tables);
        let mut ranking = chain(&tables[0], &mut rest);
        let mut refiner = Table::new(exact.clone());
        let (outcome, refinements) =
            knop::knn(ranking.as_mut(), &mut refiner, k, 0.0, &Budget::unlimited()).unwrap();
        let kth = expected[k.min(exact.len()) - 1].distance;
        prop_assert_eq!(outcome, QueryOutcome::Exact(expected[..k.min(exact.len())].to_vec()));
        prop_assert_eq!(refinements.total, within(kth));
        drop(ranking);

        let mut rest = filters(&tables);
        let mut ranking = chain(&tables[0], &mut rest);
        let mut refiner = Table::new(exact.clone());
        let (outcome, refinements) =
            knop::range(ranking.as_mut(), &mut refiner, epsilon, 0.0, &Budget::unlimited()).unwrap();
        let hits: Vec<Neighbor> =
            expected.iter().copied().filter(|n| n.distance <= epsilon).collect();
        prop_assert_eq!(outcome, QueryOutcome::Exact(hits));
        prop_assert_eq!(refinements.total, within(epsilon));
    }

    /// A budget firing at any evaluation index of any chained stage
    /// leaves every candidate in reach: pulled directly, emitted and
    /// drained together name every object once; through KNOP with
    /// `k = n`, the degraded ranking does — refined objects at their exact
    /// distance, the rest at a lower bound no smaller than the first
    /// stage's, ascending.
    #[test]
    fn a_failed_evaluation_loses_no_candidate(
        (exact, tables) in corpus(),
        stage in 0usize..MAX_STAGES,
    ) {
        let n = exact.len();
        for fail_from in 0..=n {
            let arm = |rest: &mut Vec<Table>| {
                if let Some(filter) = rest.len().checked_sub(1).map(|last| stage.min(last)) {
                    rest[filter].fail_from = fail_from;
                }
            };
            let is_bound = |id: usize, bound: f64| tables[0][id] <= bound && bound <= exact[id];

            let mut rest = filters(&tables);
            arm(&mut rest);
            let mut ranking = chain(&tables[0], &mut rest);
            let mut seen = Vec::new();
            loop {
                match ranking.next() {
                    Ok(Some(item)) => seen.push(item),
                    Ok(None) | Err(QueryError::BudgetExhausted(_)) => break,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            prop_assert!(seen.windows(2).all(|pair| pair[0].1 <= pair[1].1));
            seen.extend(ranking.drain_computed());
            seen.sort_by_key(|&(id, _)| id);
            let ids: Vec<usize> = seen.iter().map(|&(id, _)| id).collect();
            prop_assert_eq!(ids, (0..n).collect::<Vec<_>>(), "fail_from {}", fail_from);
            prop_assert!(seen.iter().all(|&(id, bound)| is_bound(id, bound)));
            drop(ranking);

            let mut rest = filters(&tables);
            arm(&mut rest);
            let mut ranking = chain(&tables[0], &mut rest);
            let mut refiner = Table::new(exact.clone());
            let (outcome, _) =
                knop::knn(ranking.as_mut(), &mut refiner, n, 0.0, &Budget::unlimited()).unwrap();
            let Some(result) = outcome.degraded() else {
                // The stage was never asked for its `fail_from`-th value.
                prop_assert_eq!(outcome, QueryOutcome::Exact(brute_force(&exact)));
                continue;
            };
            let ranked = &result.candidates;
            prop_assert!(ranked.windows(2).all(|p| (p[0].bound, p[0].id) < (p[1].bound, p[1].id)));
            let mut ids: Vec<usize> = ranked.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..n).collect::<Vec<_>>(), "fail_from {}", fail_from);
            for candidate in ranked {
                if candidate.exact {
                    prop_assert_eq!(candidate.bound.to_bits(), exact[candidate.id].to_bits());
                } else {
                    prop_assert!(is_bound(candidate.id, candidate.bound));
                }
            }
        }
    }
}
