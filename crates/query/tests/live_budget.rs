//! Budgets and warm solver contexts on live snapshots.
//!
//! A [`DynamicIndex`] snapshot runs the same chain through the same
//! evaluators as a static `ReducedImFilter -> ReducedEmdFilter ->
//! EmdDistance` plan, so a pivot cap, a deadline or an injected solve
//! fault degrades a live query exactly as it degrades a static one — same
//! ranking, same pivots charged, same stats rows — no candidate is lost
//! at any cap, and consecutive candidates warm-start each other.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{emd, Budget, BudgetReason, CostMatrix, Histogram};
use emd_faultkit::{FailPlan, FaultInjector};
use emd_query::{
    Database, DynamicIndex, EmdDistance, Executor, Filter, Query, QueryOutcome, QueryPlan,
    QueryStats, ReducedEmdFilter, ReducedImFilter,
};
use emd_reduction::{CombiningReduction, ReducedEmd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 16;
const OBJECTS: usize = 60;
const K: usize = 5;

struct Corpus {
    cost: Arc<CostMatrix>,
    reduced: ReducedEmd,
    objects: Vec<Histogram>,
    query: Histogram,
}

/// Full-support histograms under a continuous random cost matrix: every
/// LP has a generically unique optimum, so warm and cold answers agree to
/// the bit and the comparisons below are exact.
fn corpus() -> Corpus {
    let mut rng = StdRng::seed_from_u64(14);
    let histogram = |rng: &mut StdRng| {
        Histogram::normalized((0..DIM).map(|_| rng.gen_range(0.05_f64..1.0)).collect()).unwrap()
    };
    let costs = (0..DIM * DIM).map(|_| rng.gen_range(0.01_f64..4.0));
    let cost = Arc::new(CostMatrix::new(DIM, DIM, costs.collect()).unwrap());
    let assignment = (0..DIM).map(|i| i / 4).collect();
    let reduction = CombiningReduction::new(assignment, DIM / 4).unwrap();
    Corpus {
        reduced: ReducedEmd::new(&cost, reduction).unwrap(),
        cost,
        objects: (0..OBJECTS).map(|_| histogram(&mut rng)).collect(),
        query: histogram(&mut rng),
    }
}

fn dynamic_index(corpus: &Corpus) -> DynamicIndex {
    let mut index = DynamicIndex::new(Arc::clone(&corpus.cost), corpus.reduced.clone()).unwrap();
    for object in &corpus.objects {
        index.insert(object.clone()).unwrap();
    }
    index
}

fn static_executor(corpus: &Corpus) -> Executor {
    let database = Database::new(corpus.objects.clone(), Arc::clone(&corpus.cost)).unwrap();
    let stages: Vec<Box<dyn Filter>> = vec![
        Box::new(ReducedImFilter::new(&database, corpus.reduced.clone()).unwrap()),
        Box::new(ReducedEmdFilter::new(&database, corpus.reduced.clone()).unwrap()),
    ];
    let refiner = Box::new(EmdDistance::new(&database).unwrap());
    Executor::new(QueryPlan::new(stages, refiner).unwrap())
}

/// `k`-NN of the corpus query under a clone of `budget` (clones share the
/// pivot pool, so the caller can read the charge afterwards).
fn knn_under(
    executor: &Executor,
    corpus: &Corpus,
    k: usize,
    budget: &Budget,
) -> (QueryOutcome, QueryStats) {
    let query = Query {
        budget: budget.clone(),
        ..Query::knn(corpus.query.clone(), k)
    };
    executor.run(&query).unwrap()
}

#[test]
fn pivot_cap_degrades_a_live_snapshot_like_the_static_plan() {
    let corpus = corpus();
    let snapshot = dynamic_index(&corpus).snapshot().unwrap();
    let (unbudgeted, unbudgeted_stats) = snapshot.executor().knn(&corpus.query, K).unwrap();

    let budget = Budget::unlimited().with_pivot_cap(5);
    let (outcome, stats) = knn_under(snapshot.executor(), &corpus, K, &budget);
    let result = outcome
        .degraded()
        .expect("5 pivots cannot answer a 60-object query");
    assert_eq!(result.reason, BudgetReason::PivotCap);
    assert!(budget.pivots_used() > 0, "the cap was charged");

    // The degraded ranking is principled: ascending (bound, id), every
    // bound a lower bound of the exact distance, exact flags truthful.
    assert!(!result.candidates.is_empty() && result.candidates.len() <= K);
    for pair in result.candidates.windows(2) {
        assert!((pair[0].bound, pair[0].id) < (pair[1].bound, pair[1].id));
    }
    for candidate in &result.candidates {
        let object = &corpus.objects[candidate.id];
        let distance = emd(&corpus.query, object, &corpus.cost).unwrap();
        if candidate.exact {
            assert_eq!(candidate.bound.to_bits(), distance.to_bits());
        } else {
            assert!(candidate.bound <= distance + 1e-9);
        }
    }

    // The static plan over the same objects degrades under the same cap,
    // with the same ranking: one evaluator, two lookups.
    let static_budget = Budget::unlimited().with_pivot_cap(5);
    let (static_outcome, static_stats) =
        knn_under(&static_executor(&corpus), &corpus, K, &static_budget);
    assert_eq!(static_outcome, outcome);
    assert_eq!(static_stats, stats);
    assert_eq!(static_budget.pivots_used(), budget.pivots_used());

    // An unlimited budget on the same snapshot is the `knn` sugar's answer.
    let (rerun, rerun_stats) = knn_under(snapshot.executor(), &corpus, K, &Budget::unlimited());
    assert_eq!(rerun, QueryOutcome::Exact(unbudgeted));
    assert_eq!(rerun_stats, unbudgeted_stats);
}

#[test]
fn deadlines_and_injected_solve_faults_reach_live_snapshots() {
    let corpus = corpus();
    let snapshot = dynamic_index(&corpus).snapshot().unwrap();
    let (baseline, _) = snapshot.knn(&corpus.query, K).unwrap();

    let expired = Budget::unlimited().with_deadline(Duration::ZERO);
    let (outcome, _) = knn_under(snapshot.executor(), &corpus, K, &expired);
    assert_eq!(
        outcome.degraded().map(|result| result.reason),
        Some(BudgetReason::Deadline)
    );

    // `Budget::note_solve` fault sites: the first solve of the query is a
    // Red-EMD evaluation of the candidate LB_IM ranked first, the last one
    // a refinement.
    let recording = emd_obs::Recording::start();
    let (_, stats) = snapshot.knn(&corpus.query, K).unwrap();
    let solves = recording.finish().counter("core.emd.solves");
    let (_, reduced_solves) = &stats.filter_evaluations[1];
    assert_eq!(solves as usize, reduced_solves + stats.refinements);
    for solve in [1, solves] {
        let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::new().exhaust_solve(solve));
        let budget = Budget::unlimited().with_faults(plan);
        let (outcome, _) = knn_under(snapshot.executor(), &corpus, K, &budget);
        assert_eq!(
            outcome.degraded().map(|result| result.reason),
            Some(BudgetReason::Injected),
            "solve {solve}"
        );
        // The fault lived in that budget only.
        let (again, _) = snapshot.knn(&corpus.query, K).unwrap();
        assert_eq!(again, baseline);
    }
}

/// At every pivot cap from nothing to enough, with `k` large enough that
/// truncation hides nothing: the live outcome is the static chain's, and
/// a degraded one ranks *every* object exactly once — refined neighbors
/// at their exact distance, the interrupted candidate and everything
/// still inside the chain at a valid lower bound.
#[test]
fn no_candidate_is_lost_at_any_pivot_cap() {
    let corpus = corpus();
    let snapshot = dynamic_index(&corpus).snapshot().unwrap();
    let fixed = static_executor(&corpus);
    let mut degraded = 0;
    for cap in (0..).step_by(3) {
        let budget = Budget::unlimited().with_pivot_cap(cap);
        let (outcome, stats) = knn_under(snapshot.executor(), &corpus, OBJECTS, &budget);
        let static_budget = Budget::unlimited().with_pivot_cap(cap);
        let (static_outcome, static_stats) = knn_under(&fixed, &corpus, OBJECTS, &static_budget);
        assert_eq!(outcome, static_outcome, "cap {cap}");
        assert_eq!(stats, static_stats, "cap {cap}");
        let Some(result) = outcome.degraded() else {
            break;
        };
        degraded += 1;
        let mut ids: Vec<usize> = result.candidates.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..OBJECTS).collect::<Vec<_>>(), "cap {cap}");
        for candidate in &result.candidates {
            let distance = emd(&corpus.query, &corpus.objects[candidate.id], &corpus.cost).unwrap();
            if candidate.exact {
                assert_eq!(candidate.bound.to_bits(), distance.to_bits());
            } else {
                assert!(candidate.bound <= distance + 1e-9);
            }
        }
    }
    assert!(
        degraded > 20,
        "only {degraded} caps fired: the sweep is vacuous"
    );
}

#[test]
fn live_snapshots_warm_start_and_match_the_static_plan() {
    let corpus = corpus();
    let snapshot = dynamic_index(&corpus).snapshot().unwrap();
    let recording = emd_obs::Recording::start();
    let (live, live_stats) = snapshot.knn(&corpus.query, K).unwrap();
    let registry = recording.finish();
    assert!(registry.counter("transport.warm.attempts") > 0);
    assert_eq!(
        registry.counter("transport.warm.hits"),
        registry.counter("transport.warm.attempts"),
        "same-shape candidates always reuse the previous basis"
    );

    let (fixed, fixed_stats) = static_executor(&corpus).knn(&corpus.query, K).unwrap();
    let fixed: Vec<(u64, f64)> = fixed.iter().map(|n| (n.id as u64, n.distance)).collect();
    assert_eq!(live, fixed, "ids count up from zero in insertion order");
    assert_eq!(live_stats, fixed_stats);
}
