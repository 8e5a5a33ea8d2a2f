//! Properties of budgeted execution: degraded rankings are principled
//! (every bound is a valid lower bound of the exact EMD, ordered
//! ascending, exact flags truthful) and complete (a budget firing inside
//! the chain loses no candidate, at any pivot cap), and an unlimited
//! budget never degrades: `run` agrees with the `knn` sugar bit for bit.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{emd, ground, Budget, CancelToken, CostMatrix, Histogram};
use emd_query::{
    AnchorFilter, Database, EmdDistance, Executor, Filter, Query, QueryOutcome, QueryPlan,
    ReducedEmdFilter, ReducedImFilter,
};
use emd_reduction::{CombiningReduction, ReducedEmd};
use proptest::prelude::*;
use std::sync::Arc;

const DIM: usize = 6;

fn histogram() -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, DIM).prop_filter_map("positive mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

/// A continuous random cost matrix. Under the chain metric a cold solve's
/// Vogel start is already optimal — no pivot is ever charged and no cap
/// ever fires; under a generic cost it is not, and the optimum is unique,
/// so a solve's distance bits do not depend on where it started.
///
/// Every other draw is a metric of the same kind instead — the Euclidean
/// distances of `DIM` random points in the plane — so that the chain
/// below gains its anchor floor: stages that do not bound one another,
/// degraded under the same caps.
fn generic_cost() -> impl Strategy<Value = Arc<CostMatrix>> {
    let entries = prop::collection::vec(0.05_f64..4.0, DIM * DIM);
    (entries, prop::sample::select(vec![false, true])).prop_map(|(entries, metric)| {
        Arc::new(if metric {
            let points: Vec<Vec<f64>> = entries.chunks(2).take(DIM).map(<[f64]>::to_vec).collect();
            ground::from_points(&points, ground::Metric::Euclidean).expect("DIM points")
        } else {
            CostMatrix::new(DIM, DIM, entries).expect("square")
        })
    })
}

/// The paper's standard two-stage chain (`Red-IM -> Red-EMD`) over an
/// exact-EMD refiner — behind the anchor stage `QueryPlan::chain` would
/// put in front wherever the cost is a metric: both solver-backed stages
/// consult the budget.
///
/// Warm starting is forced off: the properties below compare exact-flagged
/// bounds bit-for-bit against a cold [`emd`] oracle, and on the
/// tie-prone linear ground distance a warm-started solve may settle on a
/// different (equally optimal) basis whose objective differs in the last
/// ulp.
fn executor(database: &Database) -> Executor {
    let reduced = ReducedEmd::new(
        database.cost(),
        CombiningReduction::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap(),
    )
    .unwrap();
    let mut stages: Vec<Box<dyn Filter>> = vec![
        Box::new(ReducedImFilter::new(database, reduced.clone()).unwrap()),
        Box::new(
            ReducedEmdFilter::new(database, reduced)
                .unwrap()
                .with_warm_start(false),
        ),
    ];
    if let Ok(anchor) = AnchorFilter::new(database, 3) {
        stages.insert(0, Box::new(anchor));
    }
    let refiner = Box::new(EmdDistance::new(database).unwrap().with_warm_start(false));
    Executor::new(QueryPlan::new(stages, refiner).unwrap())
}

fn knn_under(executor: &Executor, query: &Histogram, k: usize, budget: Budget) -> QueryOutcome {
    let query = Query {
        budget,
        ..Query::knn(query.clone(), k)
    };
    executor.run(&query).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// At every pivot cap from nothing to enough, a budgeted k-NN query
    /// either returns the exact answer (bit-identical to the unbudgeted
    /// run) or degrades to a ranking in which every bound is a valid
    /// lower bound of the exact EMD, exact flags are truthful, the order
    /// is ascending `(bound, id)` and no object is missing: the stage-1
    /// scan (anchor or Red-IM) charges no pivot, so there are always `k`
    /// candidates to return — for `k = n`, every object exactly once.
    #[test]
    fn degraded_rankings_are_principled(
        database in prop::collection::vec(histogram(), 4..12),
        query in histogram(),
        cost in generic_cost(),
        k in 1usize..5,
    ) {
        let database = Database::new(database, cost).unwrap();
        let executor = executor(&database);
        for k in [k, database.len()] {
            let (exact, _) = executor.knn(&query, k).unwrap();
            for cap in 0u64.. {
                let budget = Budget::unlimited().with_pivot_cap(cap);
                let result = match knn_under(&executor, &query, k, budget) {
                    QueryOutcome::Degraded(result) => result,
                    QueryOutcome::Exact(neighbors) => {
                        // The budget never fired: the answer is the exact
                        // answer, down to the last distance bit.
                        prop_assert_eq!(neighbors.len(), exact.len());
                        for (a, b) in neighbors.iter().zip(&exact) {
                            prop_assert_eq!(a.id, b.id);
                            prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                        }
                        break;
                    }
                };
                prop_assert_eq!(result.candidates.len(), k.min(database.len()), "cap {}", cap);
                for pair in result.candidates.windows(2) {
                    let earlier = (pair[0].bound, pair[0].id);
                    let later = (pair[1].bound, pair[1].id);
                    prop_assert!(earlier < later, "ranking not ascending: {earlier:?} vs {later:?}");
                }
                let mut ids: Vec<usize> = result.candidates.iter().map(|c| c.id).collect();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), result.candidates.len(), "an object is ranked twice");
                for candidate in &result.candidates {
                    let object = database.get(candidate.id).unwrap();
                    let distance = emd(&query, object, database.cost()).unwrap();
                    if candidate.exact {
                        prop_assert_eq!(
                            candidate.bound.to_bits(),
                            distance.to_bits(),
                            "exact-flagged bound must be the exact distance"
                        );
                    } else {
                        prop_assert!(
                            candidate.bound <= distance + 1e-9,
                            "lower bound {} exceeds exact distance {} for object {}",
                            candidate.bound, distance, candidate.id
                        );
                    }
                }
            }
        }
    }

    /// Unlimited budgets never degrade, and the `knn` sugar returns what
    /// `run` does: same neighbors bit for bit, same stats.
    #[test]
    fn unlimited_budget_is_bit_identical(
        database in prop::collection::vec(histogram(), 4..10),
        query in histogram(),
        k in 1usize..5,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let executor = executor(&database);
        let (exact, exact_stats) = executor.knn(&query, k).unwrap();
        let (outcome, stats) = executor.run(&Query::knn(query, k)).unwrap();
        let neighbors = outcome.exact().expect("unlimited budget cannot degrade");
        prop_assert_eq!(neighbors.len(), exact.len());
        for (a, b) in neighbors.iter().zip(&exact) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        prop_assert_eq!(stats, exact_stats);
    }

    /// Degraded range answers only ever contain candidates whose bound is
    /// within epsilon, and bounds stay valid lower bounds.
    #[test]
    fn degraded_range_respects_epsilon(
        database in prop::collection::vec(histogram(), 4..10),
        query in histogram(),
        cost in generic_cost(),
        epsilon in 0.0_f64..3.0,
        cap in 0u64..32,
    ) {
        let database = Database::new(database, cost).unwrap();
        let executor = executor(&database);
        let budget = Budget::unlimited().with_pivot_cap(cap);
        let request = Query { budget, ..Query::range(query.clone(), epsilon) };
        let (outcome, _) = executor.run(&request).unwrap();
        if let QueryOutcome::Degraded(result) = outcome {
            for candidate in &result.candidates {
                prop_assert!(candidate.bound <= epsilon);
                let object = database.get(candidate.id).unwrap();
                let distance = emd(&query, object, database.cost()).unwrap();
                if candidate.exact {
                    prop_assert_eq!(candidate.bound.to_bits(), distance.to_bits());
                } else {
                    prop_assert!(candidate.bound <= distance + 1e-9);
                }
            }
        }
    }

    /// A pre-cancelled budget degrades before any refinement: every
    /// candidate is a non-exact filter bound (or the ranking is empty),
    /// and re-running without a budget still yields the exact answer.
    #[test]
    fn cancellation_degrades_and_execution_recovers(
        database in prop::collection::vec(histogram(), 4..10),
        query in histogram(),
        k in 1usize..5,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let executor = executor(&database);

        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let outcome = knn_under(&executor, &query, k, budget);
        let result = outcome.degraded().expect("cancelled budget must degrade");
        prop_assert_eq!(result.reason, emd_core::BudgetReason::Cancelled);
        prop_assert!(result.candidates.iter().all(|c| !c.exact));

        // Same executor, no budget: exact answer, full size.
        let (exact, _) = executor.knn(&query, k).unwrap();
        prop_assert_eq!(exact.len(), k.min(database.len()));
    }
}
