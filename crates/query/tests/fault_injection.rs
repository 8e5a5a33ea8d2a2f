//! Deterministic fault injection through the query engine and the index
//! open path: every injected fault surfaces as the right typed error or
//! a principled degraded outcome — and the engine keeps answering, and
//! the directory keeps opening, afterwards.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{ground, Budget, BudgetReason, Histogram};
use emd_faultkit::{FailPlan, FaultInjector, InjectedPanic, NoFaults, Site};
use emd_query::{
    Database, DurableError, DurableIndex, EmdDistance, Executor, Filter, Query, QueryError,
    QueryOutcome, QueryPlan, QueryStats, ReducedEmdFilter, StoredClustering,
};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
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
    let executor = executor(&database);
    let queries = workload();

    // The unit of isolation is one query: query i runs as worker i, so
    // the failpoint hits query 2 only.
    let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::new().panic_worker(2));
    let mut survivors = QueryStats::default();
    let mut expected = QueryStats::default();
    for (i, query) in under(&plan, &queries).iter().enumerate() {
        let result = executor.run_isolated(query, i);
        if i == 2 {
            let err = result.unwrap_err();
            assert!(
                matches!(err, QueryError::WorkerPanicked { worker: 2, .. }),
                "query {i}: expected WorkerPanicked, got {err:?}"
            );
        } else {
            let (outcome, stats) = result.unwrap();
            let (alone, alone_stats) = executor.run(&queries[i]).unwrap();
            assert_eq!(outcome, alone, "query {i}");
            survivors.accumulate(&stats);
            expected.accumulate(&alone_stats);
        }
    }
    // The survivors' stats sum to a clean run over them.
    assert_eq!(survivors, expected);
}

#[test]
fn run_batch_reports_worker_panic_as_typed_error() {
    quiet_injected_panics();
    let database = database();
    let executor = executor(&database);
    let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::new().panic_worker(0));

    // Every query of the workload, run as worker 0, reports the panic as
    // the typed error rather than unwinding into the caller.
    for query in &under(&plan, &workload()) {
        let err = executor.run_isolated(query, 0).unwrap_err();
        assert!(
            matches!(err, QueryError::WorkerPanicked { worker: 0, .. }),
            "expected WorkerPanicked, got {err:?}"
        );
        let detail = err.to_string();
        assert!(
            detail.contains("worker 0"),
            "diagnostic names the worker: {detail}"
        );
    }

    // The executor is not poisoned: sequential queries still succeed.
    let (neighbors, _) = executor.knn(&query(), 2).unwrap();
    assert_eq!(neighbors.len(), 2);
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

    for (i, query) in queries.iter().enumerate() {
        let (outcome, _) = executor.run_isolated(query, i).unwrap();
        if i == 1 {
            let degraded = outcome.degraded().expect("a zero deadline degrades");
            assert_eq!(degraded.reason, BudgetReason::Deadline);
        } else {
            // The neighbours' answers are what `run` alone returns.
            let (alone, _) = executor.run(query).unwrap();
            assert_eq!(outcome, alone, "query {i}");
            assert!(outcome.exact().is_some());
        }
    }
}

/// Save `database()` with one kmed:2-style bundle (and, when given, a
/// clustering) into a fresh directory named after `test`.
fn saved_index(test: &str, clustering: Option<StoredClustering>) -> PathBuf {
    let mut dir: PathBuf = std::env::temp_dir();
    dir.push(format!("emd-query-faults-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let database = database();
    let reduced = ReducedEmd::new(
        database.cost(),
        CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap(),
    )
    .unwrap();
    let bundle = PersistedReduction::precompute("kmed:2", reduced, database.histograms()).unwrap();
    database
        .save_with_clusterings(&dir, "faulty", &[bundle], &[clustering])
        .unwrap();
    dir
}

/// The open path reads four files: `CURRENT`, `base.seg`,
/// `sealed-1.seg`, `wal-1.log`.
const READS: u64 = 4;

#[test]
fn injected_store_read_faults_surface_and_clear() {
    let dir = saved_index("open", None);
    for k in 1..=READS {
        let plan = FailPlan::new().fail_read(k);
        let err = Database::open_with(&dir, &plan).unwrap_err();
        assert!(matches!(err, DurableError::Io { .. }), "read {k}: {err}");
    }

    // Injection never touched the directory: a clean open serves queries.
    let opened = Database::open(&dir).unwrap();
    let executor = executor(&opened.database);
    let (neighbors, _) = executor.knn(&query(), 2).unwrap();
    assert_eq!(neighbors.len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Walk a read fault over every file read of a clustered index — the
/// checkpoint, the base segment, the sealed segment with its
/// clustering, the WAL — on the read-only and the writable open alike:
/// each surfaces as the typed [`DurableError::Io`] a real filesystem
/// failure would, and the very next open (no faults) succeeds.
#[test]
fn every_read_position_surfaces_a_typed_io_error() {
    let clustering = StoredClustering {
        pivots: vec![0, 1],
        assignments: vec![0, 1, 1, 0, 1, 0],
        radii: vec![1.0, 1.0],
    };
    let dir = saved_index("sweep", Some(clustering));
    for k in 1..=READS {
        let plan = FailPlan::new().fail_read(k);
        let err = Database::open_with(&dir, &plan).unwrap_err();
        assert!(matches!(err, DurableError::Io { .. }), "read {k}: {err}");
        assert_eq!(plan.reads_seen(), k, "injection stops at the failed read");

        let plan = Arc::new(FailPlan::new().fail_read(k));
        let err = DurableIndex::open_with(&dir, plan).unwrap_err();
        assert!(
            matches!(err, DurableError::Io { .. }),
            "writable read {k}: {err}"
        );

        let index = Database::open(&dir).unwrap();
        assert_eq!(index.name, "faulty");
        assert_eq!(index.database.len(), 6);
        assert!(index.clusterings[0].is_some());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_beyond_the_last_read_never_fires() {
    let dir = saved_index("beyond", None);
    let plan = FailPlan::new().fail_read(READS + 1);
    let index = Database::open_with(&dir, &plan).unwrap();
    assert_eq!(index.name, "faulty");
    assert_eq!(
        plan.reads_seen(),
        READS,
        "the open path reads each file once"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_faults_injector_is_transparent() {
    let dir = saved_index("transparent", None);
    let plain = Database::open(&dir).unwrap();
    let probed = Database::open_with(&dir, &NoFaults).unwrap();
    assert_eq!(plain.name, probed.name);
    assert_eq!(plain.database.histograms(), probed.database.histograms());
    assert_eq!(plain.database.cost(), probed.database.cost());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeded_plans_are_deterministic_over_the_open_path() {
    let dir = saved_index("seeded", None);
    for seed in 0..32u64 {
        let open = || Database::open_with(&dir, &FailPlan::from_seed(seed)).map(|index| index.name);
        match (open(), open()) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "seed {seed}"),
            (a, b) => panic!("seed {seed} diverged: {a:?} vs {b:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn worker_and_solve_sites_do_not_perturb_store_reads() {
    let dir = saved_index("othersites", None);
    // A plan arming only solver/worker failpoints must leave the store
    // untouched.
    let plan = FailPlan::new().exhaust_solve(1).panic_worker(0);
    assert!(plan.check(Site::Solve).is_some());
    let index = Database::open_with(&dir, &plan).unwrap();
    assert_eq!(index.database.len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeded_fault_plans_never_leave_the_engine_wedged() {
    quiet_injected_panics();
    let database = database();
    let queries = workload();
    let clean = executor(&database);
    let baseline: Vec<QueryOutcome> = queries.iter().map(|q| clean.run(q).unwrap().0).collect();

    for seed in 0..64u64 {
        let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::from_seed(seed));
        let budget = Budget::unlimited().with_faults(Arc::clone(&plan));

        // One query after another with panic isolation: every answer is
        // exact, degraded by an injected solve fault, or the typed
        // worker-panic error.
        for (i, query) in under(&plan, &queries).iter().enumerate() {
            match clean.run_isolated(query, i) {
                Ok((outcome @ QueryOutcome::Exact(_), _)) => {
                    assert_eq!(outcome, baseline[i], "seed {seed} query {i}");
                }
                Ok((QueryOutcome::Degraded(result), _)) => {
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
