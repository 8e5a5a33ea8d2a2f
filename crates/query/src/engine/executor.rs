//! The one execution path for every query in the workspace.
//!
//! [`Executor::run`] is where a [`QueryPlan`] meets a [`Query`]: it
//! prepares the per-query filter state under the query's
//! [`Budget`](crate::Budget), takes stage 1 from the plan's candidate
//! source (or else every object at the bound known for free, 0), stacks
//! every filter stage on it as a lazy
//! [`ChainedRanking`](crate::ranking::ChainedRanking) of Figure 12, and
//! hands the final ranking to the KNOP refinement loop in
//! [`knop`](crate::knop) — the *only* call site of that loop. A plan
//! without stages is the sequential scan: KNOP over the zero bound, which
//! refines every object. Static plans, the live
//! [`DurableIndex`](crate::DurableIndex) and the
//! brute-force [`scan`](crate::scan) oracles all execute through here;
//! [`Executor::knn`] and [`Executor::range`] are sugar that builds an
//! unlimited [`Query`] and calls [`Executor::run`]. The plan is
//! immutable, so concurrent callers (the server's worker pool) share one
//! executor.
//!
//! ## Warm-start contexts
//!
//! The solver-backed stages ([`EmdDistance`](crate::EmdDistance) and
//! [`ReducedEmdFilter`](crate::ReducedEmdFilter)) build one
//! `EmdContext` per prepared query, so every candidate evaluated for
//! that query reuses the solver's buffers and warm-starts from the
//! previous candidate's final basis. Nothing warm is shared between
//! queries, so concurrent queries cannot affect each other's results.
//!
//! ## Execution governance
//!
//! The [`Budget`](crate::Budget) a query carries (wall-clock deadline,
//! solver pivot cap, cooperative cancellation) is threaded through filter
//! preparation, the stage-1 stream and the KNOP loop. When it fires the
//! executor returns [`QueryOutcome::Degraded`] — the candidate ranking
//! ordered by the tightest lower bound computed so far — instead of an
//! error or a silently truncated "exact" answer. [`Executor::run_isolated`] adds
//! panic isolation: a panicking query turns into
//! [`QueryError::WorkerPanicked`] for that query only, and the executor
//! keeps answering. A fault injector rides the query's budget
//! (`Budget::with_faults`): its solve failpoints fire inside the solver,
//! its worker failpoints here.

use crate::engine::source::EveryObject;
use crate::error::QueryError;
use crate::filters::PreparedFilter;
use crate::knop;
use crate::outcome::QueryOutcome;
use crate::ranking::{ChainedRanking, Ranking};
use crate::stats::QueryStats;
use crate::Neighbor;
use emd_core::{BudgetReason, Histogram};
use emd_faultkit::{Fault, InjectedPanic, Site};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use super::plan::{Query, QueryMode, QueryPlan};

/// Executes [`QueryPlan`]s, one [`Query`] per call.
#[derive(Debug)]
pub struct Executor {
    plan: QueryPlan,
}

impl Executor {
    /// Wrap a plan for execution.
    pub fn new(plan: QueryPlan) -> Self {
        Executor { plan }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Number of database objects the plan indexes.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Whether the indexed database is empty (never true for a
    /// constructed executor).
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Exact k-nearest-neighbor query: [`Executor::run`] under an
    /// unlimited budget.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] for `k = 0`, a query shape mismatch, or a
    /// filter/refiner failure mid-query — including
    /// [`QueryError::BudgetExhausted`] should a filter report exhaustion
    /// on its own (never a truncated `Ok`).
    // lint: allow(unbudgeted): sugar over run with Budget::unlimited().
    pub fn knn(
        &self,
        query: &Histogram,
        k: usize,
    ) -> Result<(Vec<Neighbor>, QueryStats), QueryError> {
        self.run_exact(&Query::knn(query.clone(), k))
    }

    /// Exact range query: [`Executor::run`] under an unlimited budget.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] for a negative or non-finite `epsilon`, a
    /// query shape mismatch, or a filter/refiner failure mid-query.
    // lint: allow(unbudgeted): sugar over run with Budget::unlimited().
    pub fn range(
        &self,
        query: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<Neighbor>, QueryStats), QueryError> {
        self.run_exact(&Query::range(query.clone(), epsilon))
    }

    /// [`Executor::run`], with a degraded outcome turned into
    /// [`QueryError::BudgetExhausted`].
    fn run_exact(&self, query: &Query) -> Result<(Vec<Neighbor>, QueryStats), QueryError> {
        let (outcome, stats) = self.run(query)?;
        Ok((outcome.into_exact()?, stats))
    }

    /// [`Executor::run`] with panic isolation: the long-running-server
    /// entry point. The query executes inside `catch_unwind`, so a
    /// panicking solve (a bug, a poisoned invariant, an injected
    /// [`Fault::Panic`]) surfaces as [`QueryError::WorkerPanicked`]
    /// attributed to `worker` — the caller keeps serving. `worker` is an
    /// arbitrary caller-chosen ordinal (the serve layer passes a
    /// per-request sequence number, so an armed [`Site::Worker`]
    /// failpoint targets exactly one request); the fault injector the
    /// query's budget carries (if any) is probed at it first.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::run`], plus
    /// [`QueryError::WorkerPanicked`] for panics caught in this call.
    pub fn run_isolated(
        &self,
        query: &Query,
        worker: usize,
    ) -> Result<(QueryOutcome, QueryStats), QueryError> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if query.budget.fault(Site::Worker(worker)) == Some(Fault::Panic) {
                std::panic::panic_any(InjectedPanic::new(worker)); // lint: allow(panic)
            }
            self.run(query)
        }));
        match result {
            Ok(answer) => answer,
            Err(payload) => {
                emd_obs::counter_add("query.worker_panics", 1);
                Err(QueryError::WorkerPanicked {
                    worker,
                    detail: panic_detail(payload.as_ref()),
                })
            }
        }
    }

    /// Run one [`Query`] (k-NN or range, as its mode says) under the
    /// [`Budget`](crate::Budget) it carries — the single body every other
    /// entry point reaches.
    ///
    /// When the budget fires mid-query the outcome is
    /// [`QueryOutcome::Degraded`]: the candidate ranking ordered by the
    /// tightest lower bound computed so far, with refined candidates
    /// flagged `exact`. Under `Budget::unlimited()` the outcome is always
    /// [`QueryOutcome::Exact`].
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] for `k = 0`, a negative or non-finite
    /// `epsilon`, a query shape mismatch, or a filter/refiner failure
    /// mid-query; budget exhaustion is *not* an error here — it degrades.
    pub fn run(&self, query: &Query) -> Result<(QueryOutcome, QueryStats), QueryError> {
        let _query_span = emd_obs::span("query.execute");
        emd_obs::counter_add("query.queries", 1);
        let Query {
            histogram,
            mode,
            budget,
        } = query;
        match *mode {
            QueryMode::Knn(0) => return Err(QueryError::ZeroK),
            QueryMode::Range(epsilon) if epsilon.is_nan() || epsilon < 0.0 => {
                return Err(QueryError::InvalidEpsilon(epsilon));
            }
            _ => {}
        }
        let plan = &self.plan;
        let mut refiner = {
            let _span = emd_obs::span("query.refiner.prepare");
            plan.refiner().prepare(histogram, budget)?
        };
        let mut prepared: Vec<Box<dyn PreparedFilter + '_>> =
            Vec::with_capacity(plan.stages().len());
        for stage in plan.stages() {
            let _span = emd_obs::span_with(|| format!("query.stage.{}.prepare", stage.name()));
            prepared.push(stage.prepare(histogram, budget)?);
        }
        let mut source = match plan.source() {
            Some(source) => {
                let _span =
                    emd_obs::span_with(|| format!("query.source.{}.prepare", source.name()));
                Some((source.name(), source.prepare(histogram, budget)?))
            }
            None => None,
        };

        let (outcome, refinements) = {
            // Stage 1 comes from the plan's source, or else is every object
            // at bound 0; every filter stage chains on top.
            let mut ranking: Box<dyn Ranking + '_> = match &mut source {
                Some((_, stream)) => Box::new(stream.as_mut()),
                None => Box::new(EveryObject::new(plan.len(), budget)),
            };
            let _span = emd_obs::span("query.knop");
            for stage in &mut prepared {
                ranking = Box::new(ChainedRanking::new(ranking, Box::new(stage.as_mut())));
            }
            let (ranking, refiner, slack) = (ranking.as_mut(), refiner.as_mut(), plan.slack);
            match *mode {
                QueryMode::Knn(k) => knop::knn(ranking, refiner, k, slack, budget)?,
                QueryMode::Range(epsilon) => knop::range(ranking, refiner, epsilon, slack, budget)?,
            }
        };

        // Stats rows: the source first (its lower-bound evaluations are
        // the stage-1 cost), then the filter stages in plan order.
        let mut evaluations = Vec::with_capacity(1 + prepared.len());
        if let Some((name, stream)) = &source {
            evaluations.push(((*name).to_owned(), stream.evaluations()));
        }
        evaluations.extend(
            plan.stages()
                .iter()
                .zip(&prepared)
                .map(|(stage, p)| (stage.name().to_owned(), p.evaluations())),
        );
        Ok(finish_outcome(outcome, refinements, evaluations))
    }
}

/// Wrap an outcome into stats, publish them, and count degraded answers.
fn finish_outcome(
    outcome: QueryOutcome,
    refinements: knop::Refinements,
    evaluations: Vec<(String, usize)>,
) -> (QueryOutcome, QueryStats) {
    let results = match &outcome {
        QueryOutcome::Exact(neighbors) => neighbors.len(),
        QueryOutcome::Degraded(result) => result.candidates.len(),
    };
    let stats = QueryStats {
        filter_evaluations: evaluations,
        refinements: refinements.total,
        refinements_cut: refinements.cut,
        results,
    };
    publish_stats(&stats);
    if let QueryOutcome::Degraded(result) = &outcome {
        emd_obs::counter_add("query.degraded", 1);
        if result.reason == BudgetReason::Deadline {
            emd_obs::counter_add("query.deadline_exceeded", 1);
        }
    }
    (outcome, stats)
}

/// Render a panic payload to text, preferring the typed
/// [`InjectedPanic`] marker, then the conventional `&str` / `String`
/// payloads of `panic!`.
fn panic_detail(payload: &(dyn Any + Send)) -> String {
    if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        injected.to_string()
    } else if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Mirror a query's [`QueryStats`] into the ambient metrics registry, so
/// registry consumers see the same per-stage evaluation counts the stats
/// façade reports. The filters keep their own cheap counters
/// ([`PreparedFilter::evaluations`]) — publishing after the fact keeps the
/// per-candidate hot path free of registry lookups.
fn publish_stats(stats: &QueryStats) {
    if !emd_obs::recording() {
        return;
    }
    for (name, evaluations) in &stats.filter_evaluations {
        emd_obs::counter_add(
            &format!("query.stage.{name}.evaluations"),
            *evaluations as u64,
        );
    }
    emd_obs::counter_add("query.refinements", stats.refinements as u64);
    emd_obs::counter_add("query.results", stats.results as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Database;
    use crate::filters::{EmdDistance, Filter, ReducedEmdFilter, ReducedImFilter};
    use crate::scan::{brute_force_knn, brute_force_range};
    use emd_core::{ground, Budget, CancelToken};
    use emd_faultkit::FailPlan;
    use emd_reduction::{CombiningReduction, ReducedEmd};
    use std::sync::Arc;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    fn database() -> Database {
        let db = vec![
            h(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            h(&[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
            h(&[0.0, 0.5, 0.5, 0.0, 0.0, 0.0]),
            h(&[0.0, 0.0, 0.0, 0.5, 0.5, 0.0]),
            h(&[0.0, 0.0, 0.0, 0.0, 0.5, 0.5]),
            h(&[0.2, 0.2, 0.2, 0.2, 0.1, 0.1]),
            h(&[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
            h(&[0.1, 0.0, 0.0, 0.0, 0.0, 0.9]),
        ];
        Database::new(db, Arc::new(ground::linear(6).unwrap())).unwrap()
    }

    /// The sequential-scan baseline: no filter stages.
    fn scan() -> Executor {
        let refiner = EmdDistance::new(&database()).unwrap();
        Executor::new(QueryPlan::sequential(Box::new(refiner)).unwrap())
    }

    /// The paper's flagship chain, `Red-IM -> Red-EMD -> EMD`.
    fn full_pipeline() -> Executor {
        let db = database();
        let r = CombiningReduction::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let reduced = ReducedEmd::new(db.cost(), r).unwrap();
        let red_im = ReducedImFilter::new(&db, reduced.clone()).unwrap();
        let red_emd = ReducedEmdFilter::new(&db, reduced).unwrap();
        let refiner = EmdDistance::new(&db).unwrap();
        let stages: Vec<Box<dyn Filter>> = vec![Box::new(red_im), Box::new(red_emd)];
        Executor::new(QueryPlan::new(stages, Box::new(refiner)).unwrap())
    }

    #[test]
    fn pipeline_matches_sequential_scan() {
        let scan = scan();
        let pipeline = full_pipeline();
        for query in [
            h(&[0.9, 0.1, 0.0, 0.0, 0.0, 0.0]),
            h(&[0.0, 0.0, 0.3, 0.4, 0.3, 0.0]),
            h(&[1.0 / 6.0; 6]),
        ] {
            for k in [1, 3, 5] {
                let (expected, _) = scan.knn(&query, k).unwrap();
                let (got, stats) = pipeline.knn(&query, k).unwrap();
                // Equal-distance results may come back in either order;
                // compare (distance, id) pairs canonically sorted.
                let canonical = |neighbors: &[Neighbor]| {
                    let mut pairs: Vec<(i64, usize)> = neighbors
                        .iter()
                        .map(|n| ((n.distance * 1e9).round() as i64, n.id))
                        .collect();
                    pairs.sort_unstable();
                    pairs
                };
                assert_eq!(canonical(&got), canonical(&expected), "k={k} completeness");
                assert!(stats.refinements <= 8);
            }
        }
    }

    #[test]
    fn chained_pipeline_reduces_stage_two_evaluations() {
        let pipeline = full_pipeline();
        let query = h(&[0.9, 0.1, 0.0, 0.0, 0.0, 0.0]);
        let (_, stats) = pipeline.knn(&query, 2).unwrap();
        // Stage 1 (Red-IM) scans everything; stage 2 (Red-EMD) must not.
        assert_eq!(stats.filter_evaluations[0].1, 8);
        assert!(
            stats.filter_evaluations[1].1 <= 8,
            "stage 2 evaluated {} objects",
            stats.filter_evaluations[1].1
        );
        assert!(stats.refinements <= stats.filter_evaluations[1].1.max(2));
    }

    #[test]
    fn range_query_matches_scan() {
        let query = h(&[0.0, 0.3, 0.4, 0.3, 0.0, 0.0]);
        let (expected, _) = scan().range(&query, 1.0).unwrap();
        let (got, _) = full_pipeline().range(&query, 1.0).unwrap();
        assert_eq!(
            got.iter().map(|n| n.id).collect::<Vec<_>>(),
            expected.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sequential_scan_counts_all_refinements() {
        // KNOP over the zero bound refines every object, warm or cold, and
        // answers what the brute-force oracles answer. The query's exact
        // distances (0.1, 0.9, 1.4, 3.4, 4.4, 2.0, 1.9, 4.4) tie only
        // beyond the ks and radii asked for.
        let db = database();
        let query = h(&[0.9, 0.1, 0.0, 0.0, 0.0, 0.0]);
        let ids = |neighbors: &[Neighbor]| neighbors.iter().map(|n| n.id).collect::<Vec<_>>();
        for warm in [true, false] {
            let refiner = EmdDistance::new(&db).unwrap().with_warm_start(warm);
            let scan = Executor::new(QueryPlan::sequential(Box::new(refiner)).unwrap());
            for k in [1, 3, 5] {
                let expected = brute_force_knn(&query, db.histograms(), db.cost(), k).unwrap();
                let (got, stats) = scan.knn(&query, k).unwrap();
                assert_eq!(ids(&got), ids(&expected), "warm {warm}, k {k}");
                assert_eq!(stats.refinements, db.len(), "warm {warm}, k {k}");
                assert!(stats.filter_evaluations.is_empty());
            }
            for epsilon in [0.5, 1.5, 2.5] {
                let cost = db.cost();
                let expected = brute_force_range(&query, db.histograms(), cost, epsilon).unwrap();
                let (got, stats) = scan.range(&query, epsilon).unwrap();
                assert_eq!(ids(&got), ids(&expected), "warm {warm}, ε {epsilon}");
                assert_eq!(stats.refinements, db.len(), "warm {warm}, ε {epsilon}");
            }
        }
    }

    /// A stage backed by a table of lower bounds that cancels `token` at
    /// its `cancel_at`-th evaluation (1-based), so the budget fires at the
    /// scan's next probe.
    struct CancellingTable {
        table: Vec<f64>,
        token: CancelToken,
        cancel_at: usize,
    }

    struct PreparedCancelling<'a>(&'a CancellingTable, usize);

    impl Filter for CancellingTable {
        fn name(&self) -> &str {
            "table"
        }
        fn len(&self) -> usize {
            self.table.len()
        }
        fn slack(&self) -> f64 {
            0.0
        }
        fn prepare(
            &self,
            _query: &Histogram,
            _budget: &Budget,
        ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
            Ok(Box::new(PreparedCancelling(self, 0)))
        }
    }

    impl PreparedFilter for PreparedCancelling<'_> {
        fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
            self.1 += 1;
            if self.1 == self.0.cancel_at {
                self.0.token.cancel();
            }
            self.0
                .table
                .get(id)
                .copied()
                .ok_or(QueryError::UnknownObject(id))
        }
        fn evaluations(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn a_budget_firing_loses_no_object_on_a_scan_plan() {
        // k = n: a degraded answer must name every object once, at its
        // exact distance or a lower bound of it, wherever the budget fired
        // — mid-scan of a closed-form stage, inside an LP first stage, or
        // inside the refiner.
        let db = database();
        let n = db.len();
        let query = h(&[0.9, 0.1, 0.0, 0.0, 0.0, 0.0]);
        let exact: Vec<f64> = db
            .histograms()
            .iter()
            .map(|object| emd_core::emd(&query, object, db.cost()).unwrap())
            .collect();
        let check = |executor: &Executor, budget: Budget, case: &str| -> bool {
            let request = Query {
                budget,
                ..Query::knn(query.clone(), n)
            };
            let (outcome, _) = executor.run(&request).unwrap();
            let Some(degraded) = outcome.degraded() else {
                assert_eq!(outcome.exact().map(<[_]>::len), Some(n), "{case}");
                return false;
            };
            let mut ids: Vec<usize> = degraded.candidates.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..n).collect::<Vec<_>>(), "{case}");
            for c in &degraded.candidates {
                let truth = exact[c.id];
                assert!(c.bound <= truth + 1e-9, "{case}: {c:?} above {truth}");
                assert!(!c.exact || (c.bound - truth).abs() < 1e-9, "{case}: {c:?}");
            }
            true
        };

        // Mid-scan: the scan probes the budget before each object.
        for cancel_at in 1..n {
            let token = CancelToken::new();
            let stage: Box<dyn Filter> = Box::new(CancellingTable {
                table: exact.iter().map(|d| d / 2.0).collect(),
                token: token.clone(),
                cancel_at,
            });
            let refiner = Box::new(EmdDistance::new(&db).unwrap());
            let executor = Executor::new(QueryPlan::new(vec![stage], refiner).unwrap());
            let budget = Budget::unlimited().with_cancel(token);
            assert!(check(&executor, budget, &format!("cancel at {cancel_at}")));
        }

        // An LP first stage, then the refiner: the j-th solve of the
        // query is exhausted, for every j up to the last. The refiner's n
        // solves come after or between the stage's.
        let reduction = CombiningReduction::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let reduced = ReducedEmd::new(db.cost(), reduction).unwrap();
        let red_emd: Box<dyn Filter> = Box::new(ReducedEmdFilter::new(&db, reduced).unwrap());
        let refiner = Box::new(EmdDistance::new(&db).unwrap());
        let chain = Executor::new(QueryPlan::new(vec![red_emd], refiner).unwrap());
        for (executor, stage_solves) in [(&chain, true), (&scan(), false)] {
            let counter = Arc::new(FailPlan::new());
            assert!(!check(
                executor,
                Budget::unlimited().with_faults(counter.clone()),
                ""
            ));
            let solves = counter.solves_seen();
            assert_eq!(solves > n as u64, stage_solves);
            for j in 1..=solves {
                let plan = Arc::new(FailPlan::new().exhaust_solve(j));
                let budget = Budget::unlimited().with_faults(plan);
                assert!(check(executor, budget, &format!("solve {j} of {solves}")));
            }
        }
    }

    #[test]
    fn rejects_empty_database_and_zero_k() {
        let empty_db = Database::new(Vec::new(), Arc::new(ground::linear(6).unwrap())).unwrap();
        let empty = EmdDistance::new(&empty_db).unwrap();
        assert!(matches!(
            QueryPlan::sequential(Box::new(empty)).unwrap_err(),
            QueryError::EmptyDatabase
        ));
        let pipeline = full_pipeline();
        assert!(matches!(
            pipeline.knn(&h(&[1.0 / 6.0; 6]), 0).unwrap_err(),
            QueryError::ZeroK
        ));
        assert!(matches!(
            pipeline.range(&h(&[1.0 / 6.0; 6]), -0.5).unwrap_err(),
            QueryError::InvalidEpsilon(_)
        ));
    }

    /// A refiner that reports budget exhaustion on its own, whatever
    /// budget it was prepared under.
    struct ExhaustedRefiner(usize);

    impl Filter for ExhaustedRefiner {
        fn name(&self) -> &str {
            "exhausted"
        }
        fn len(&self) -> usize {
            self.0
        }
        fn slack(&self) -> f64 {
            0.0
        }
        fn prepare(
            &self,
            _query: &Histogram,
            _budget: &Budget,
        ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
            Ok(Box::new(ExhaustedRefiner(0)))
        }
    }

    impl PreparedFilter for ExhaustedRefiner {
        fn distance(&mut self, _id: usize) -> Result<f64, QueryError> {
            self.0 += 1;
            Err(QueryError::BudgetExhausted(BudgetReason::PivotCap))
        }
        fn evaluations(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn knn_sugar_never_passes_a_degraded_answer_for_exact() {
        let db = database();
        let r = CombiningReduction::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let reduced = ReducedEmd::new(db.cost(), r).unwrap();
        let stages: Vec<Box<dyn Filter>> =
            vec![Box::new(ReducedEmdFilter::new(&db, reduced).unwrap())];
        let plan = QueryPlan::new(stages, Box::new(ExhaustedRefiner(db.len()))).unwrap();
        let executor = Executor::new(plan);
        let query = h(&[1.0 / 6.0; 6]);

        // `run` degrades to the filter bounds it has...
        let (outcome, _) = executor.run(&Query::knn(query.clone(), 3)).unwrap();
        let degraded = outcome.degraded().expect("the refiner never answers");
        assert_eq!(degraded.candidates.len(), 3);
        assert!(degraded.candidates.iter().all(|c| !c.exact));
        // ...and the sugar reports that as an error, never as `Ok`.
        for result in [executor.knn(&query, 3), executor.range(&query, 10.0)] {
            assert!(matches!(
                result,
                Err(QueryError::BudgetExhausted(BudgetReason::PivotCap))
            ));
        }
    }
}
