//! Deterministic fault injection through the query engine: every
//! injected fault surfaces as the right typed error or a principled
//! degraded outcome — and the engine keeps answering afterwards.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{ground, Budget, BudgetReason, Histogram};
use emd_faultkit::{FailPlan, FaultInjector, InjectedPanic};
use emd_query::{
    Database, EmdDistance, Executor, Filter, Query, QueryError, QueryOutcome, QueryPlan,
    ReducedEmdFilter,
};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use emd_store::StoreError;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 4;

/// Suppress the default panic-hook noise for *injected* panics only;
/// genuine panics still print as usual.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

fn histograms() -> Vec<Histogram> {
    vec![
        Histogram::new(vec![1.0, 0.0, 0.0, 0.0]).unwrap(),
        Histogram::new(vec![0.0, 1.0, 0.0, 0.0]).unwrap(),
        Histogram::new(vec![0.0, 0.5, 0.5, 0.0]).unwrap(),
        Histogram::new(vec![0.25, 0.25, 0.25, 0.25]).unwrap(),
        Histogram::new(vec![0.0, 0.0, 0.0, 1.0]).unwrap(),
        Histogram::new(vec![0.5, 0.0, 0.0, 0.5]).unwrap(),
    ]
}

fn database() -> Database {
    let cost = Arc::new(ground::linear(DIM).unwrap());
    Database::new(histograms(), cost).unwrap()
}

fn executor(database: &Database) -> Executor {
    let reduced = ReducedEmd::new(
        database.cost(),
        CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap(),
    )
    .unwrap();
    let stages: Vec<Box<dyn Filter>> =
        vec![Box::new(ReducedEmdFilter::new(database, reduced).unwrap())];
    let refiner = Box::new(EmdDistance::new(database).unwrap());
    Executor::new(QueryPlan::new(stages, refiner).unwrap())
}

fn query() -> Histogram {
    Histogram::new(vec![0.5, 0.5, 0.0, 0.0]).unwrap()
}

fn workload() -> Vec<Query> {
    histograms().into_iter().map(|h| Query::knn(h, 2)).collect()
}

/// `queries` with `plan` riding every budget: the one fault channel.
fn under(plan: &Arc<dyn FaultInjector>, queries: &[Query]) -> Vec<Query> {
    let budget = Budget::unlimited().with_faults(Arc::clone(plan));
    let faulty = |query: &Query| Query {
        budget: budget.clone(),
        ..query.clone()
    };
    queries.iter().map(faulty).collect()
}

#[test]
fn injected_solve_exhaustion_degrades_then_engine_recovers() {
    let database = database();
    let executor = executor(&database);
    let (baseline, _) = executor.knn(&query(), 2).unwrap();

    // Walk the failpoint over every solve position in the query (filter
    // materialization + refinements; 32 safely covers both).
    let mut degraded_seen = 0;
    for j in 1..=32u64 {
        let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::new().exhaust_solve(j));
        let budget = Budget::unlimited().with_faults(plan);
        let request = Query {
            budget,
            ..Query::knn(query(), 2)
        };
        let (outcome, _) = executor.run(&request).unwrap();
        if let Some(result) = outcome.degraded() {
            degraded_seen += 1;
            assert_eq!(result.reason, BudgetReason::Injected, "solve {j}");
        }

        // The fault lived only in that budget: the same executor answers
        // the next query exactly.
        let (again, _) = executor.knn(&query(), 2).unwrap();
        assert_eq!(again, baseline, "after injected solve {j}");
    }
    assert!(degraded_seen > 0, "no solve position ever degraded");
}

#[test]
fn injected_worker_panic_is_isolated_to_its_chunk() {
    quiet_injected_panics();
    let database = database();
    let clean = executor(&database);
    let queries = workload();
    let (baseline, _) = clean.run_batch(&queries, 1).unwrap();

    // 3 threads over 6 queries: worker 1 owns queries 2 and 3.
    let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::new().panic_worker(1));
    let (results, stats) = clean.run_batch_isolated(&under(&plan, &queries), 3);
    assert_eq!(results.len(), queries.len());
    for (i, result) in results.iter().enumerate() {
        if i == 2 || i == 3 {
            assert!(
                matches!(result, Err(QueryError::WorkerPanicked { worker: 1, .. })),
                "query {i}: expected WorkerPanicked, got {result:?}"
            );
        } else {
            let outcome = result.as_ref().unwrap();
            assert_eq!(outcome.exact(), Some(baseline[i].as_slice()), "query {i}");
        }
    }

    // Survivor stats merge exactly as a batch over the surviving queries.
    let survivors: Vec<Query> = queries
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 2 && *i != 3)
        .map(|(_, q)| q.clone())
        .collect();
    let (_, expected_stats) = clean.run_batch(&survivors, 1).unwrap();
    assert_eq!(stats, expected_stats);
}

#[test]
fn batches_honour_per_query_budgets() {
    let database = database();
    let executor = executor(&database);
    let mut queries = workload();
    queries.truncate(3);
    if let Some(middle) = queries.get_mut(1) {
        middle.budget = Budget::unlimited().with_deadline(Duration::ZERO);
    }

    for threads in [1, 3] {
        let (results, _) = executor.run_batch_isolated(&queries, threads);
        assert_eq!(results.len(), 3);
        for (i, result) in results.iter().enumerate() {
            let outcome = result.as_ref().unwrap();
            if i == 1 {
                let degraded = outcome.degraded().expect("a zero deadline degrades");
                assert_eq!(degraded.reason, BudgetReason::Deadline);
            } else {
                // The neighbours' slots are what `run` alone returns.
                let (alone, _) = executor.run(&queries[i]).unwrap();
                assert_eq!(outcome, &alone, "threads {threads} query {i}");
                assert!(outcome.exact().is_some());
            }
        }
        // The exact-or-error sugar reports the degraded slot, not a
        // truncated answer.
        assert!(matches!(
            executor.run_batch(&queries, threads),
            Err(QueryError::BudgetExhausted(BudgetReason::Deadline))
        ));
    }
}

#[test]
fn run_batch_reports_worker_panic_as_typed_error() {
    quiet_injected_panics();
    let database = database();
    let executor = executor(&database);
    let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::new().panic_worker(0));
    let err = executor
        .run_batch(&under(&plan, &workload()), 2)
        .unwrap_err();
    assert!(
        matches!(err, QueryError::WorkerPanicked { worker: 0, .. }),
        "expected WorkerPanicked, got {err:?}"
    );
    let detail = err.to_string();
    assert!(
        detail.contains("worker 0"),
        "diagnostic names the worker: {detail}"
    );

    // The executor is not poisoned: sequential queries still succeed.
    let (neighbors, _) = executor.knn(&query(), 2).unwrap();
    assert_eq!(neighbors.len(), 2);
}

#[test]
fn injected_store_read_faults_surface_and_clear() {
    let mut dir: PathBuf = std::env::temp_dir();
    dir.push(format!("emd-query-faults-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let database = database();
    let reduced = ReducedEmd::new(
        database.cost(),
        CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap(),
    )
    .unwrap();
    let bundle = PersistedReduction::precompute("kmed:2", reduced, database.histograms()).unwrap();
    database.save(&dir, "faulty", &[bundle]).unwrap();

    // Reads: 1 = manifest, 2 = database segment, 3 = reduction segment.
    for k in 1..=3u64 {
        let plan = FailPlan::new().fail_read(k);
        let err = Database::open_with(&dir, &plan).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "read {k}: {err}");
    }

    // Injection never touched the directory: a clean open serves queries.
    let opened = Database::open(&dir).unwrap();
    let executor = executor(&opened.database);
    let (neighbors, _) = executor.knn(&query(), 2).unwrap();
    assert_eq!(neighbors.len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeded_fault_plans_never_leave_the_engine_wedged() {
    quiet_injected_panics();
    let database = database();
    let queries = workload();
    let clean = executor(&database);
    let (baseline, _) = clean.run_batch(&queries, 1).unwrap();

    for seed in 0..64u64 {
        let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::from_seed(seed));
        let budget = Budget::unlimited().with_faults(Arc::clone(&plan));

        // Batched with panic isolation: every per-query result is exact,
        // degraded by an injected solve fault, or the typed worker-panic
        // error.
        let (results, _) = clean.run_batch_isolated(&under(&plan, &queries), 2);
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(QueryOutcome::Exact(neighbors)) => {
                    assert_eq!(neighbors, &baseline[i], "seed {seed} query {i}");
                }
                Ok(QueryOutcome::Degraded(result)) => {
                    assert_eq!(
                        result.reason,
                        BudgetReason::Injected,
                        "seed {seed} query {i}"
                    );
                }
                Err(QueryError::WorkerPanicked { .. }) => {}
                Err(other) => panic!("seed {seed} query {i}: unexpected error {other:?}"),
            }
        }

        // Budgeted single query: exact or degraded, never an error.
        let request = Query {
            budget,
            ..Query::knn(query(), 2)
        };
        let (outcome, _) = clean.run(&request).unwrap();
        if let Some(result) = outcome.degraded() {
            assert_eq!(result.reason, BudgetReason::Injected, "seed {seed}");
        }

        // And the engine always answers the next clean query.
        let (again, _) = clean.knn(&query(), 2).unwrap();
        assert_eq!(again.len(), 2, "seed {seed}");
    }
}
