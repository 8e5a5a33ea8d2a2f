//! Budgets and warm solver contexts on live snapshots.
//!
//! A [`DurableIndex`] snapshot runs the same chain through the same
//! evaluators as a static [`QueryPlan::chain`] plan, so a pivot cap, a
//! deadline or an injected solve fault degrades a live query exactly as
//! it degrades a static one — same ranking, same pivots charged, same
//! stats rows — no candidate is lost at any cap, and consecutive
//! candidates warm-start each other. Every comparison runs over a freshly
//! filled index and over a churned one (tombstones, a compaction behind
//! it, ids with gaps), under a metric ground distance (the chain is
//! `anchor -> red-im -> red-emd`, the anchor projections made at insert)
//! and under one that is not (the paper's two stages). A recovered index
//! re-derives the projections and answers as brute force does.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::ground::{self, Metric};
use emd_core::{emd, Budget, BudgetReason, CostMatrix, Histogram};
use emd_faultkit::{FailPlan, FaultInjector};
use emd_query::scan::brute_force_knn;
use emd_query::{Database, DurableIndex, Executor, Query, QueryOutcome, QueryPlan, QueryStats};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 16;
const OBJECTS: usize = 60;
const K: usize = 5;

struct Corpus {
    cost: Arc<CostMatrix>,
    reduced: ReducedEmd,
    index: DurableIndex,
    /// The index's directory, removed with the corpus.
    dir: PathBuf,
    /// The live objects in ascending id order, i.e. by the dense id a
    /// snapshot's executor (and the static plan) knows them under.
    objects: Vec<Histogram>,
    /// Dense id -> the id `insert` returned.
    ids: Vec<u64>,
    query: Histogram,
}

/// Full-support histograms under a continuous random cost matrix: every
/// LP has a generically unique optimum, so warm and cold answers agree to
/// the bit and the comparisons below are exact. `metric` draws the cost
/// as the Euclidean distances of random points in space — continuous
/// still, and a ground distance the anchor bound exists for — where the
/// plain one is no metric at all. `churned` leaves `OBJECTS` live objects
/// behind removals, one `compact()` and further removals whose
/// tombstones are still in place.
fn corpus(metric: bool, churned: bool) -> Corpus {
    let mut rng = StdRng::seed_from_u64(14);
    let histogram = |rng: &mut StdRng| {
        Histogram::normalized((0..DIM).map(|_| rng.gen_range(0.05_f64..1.0)).collect()).unwrap()
    };
    let cost = if metric {
        let point = |_| (0..3).map(|_| rng.gen_range(0.0_f64..4.0)).collect();
        let points: Vec<Vec<f64>> = (0..DIM).map(point).collect();
        ground::from_points(&points, Metric::Euclidean).unwrap()
    } else {
        let costs = (0..DIM * DIM).map(|_| rng.gen_range(0.01_f64..4.0));
        CostMatrix::new(DIM, DIM, costs.collect()).unwrap()
    };
    let cost = Arc::new(cost);
    let assignment = (0..DIM).map(|i| i / 4).collect();
    let reduction = CombiningReduction::new(assignment, DIM / 4).unwrap();
    let reduced = ReducedEmd::new(&cost, reduction).unwrap();

    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("emd-live-corpus-{}-{id}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut index = DurableIndex::create(&dir, Arc::clone(&cost), reduced.clone()).unwrap();
    let mut live: Vec<(u64, Histogram)> = Vec::new();
    let mut fill = |index: &mut DurableIndex, live: &mut Vec<(u64, Histogram)>, count: usize| {
        for _ in 0..count {
            let object = histogram(&mut rng);
            live.push((index.append_insert(object.clone()).unwrap(), object));
        }
    };
    if churned {
        fill(&mut index, &mut live, OBJECTS);
        live.retain(|(id, _)| id % 3 != 0 || !index.append_remove(*id).unwrap());
        index.compact().unwrap();
        fill(&mut index, &mut live, OBJECTS / 2);
        live.retain(|(id, _)| id % 7 != 1 || !index.append_remove(*id).unwrap());
        let missing = OBJECTS - live.len();
        fill(&mut index, &mut live, missing);
        assert!(live.iter().zip(0..).any(|((id, _), dense)| *id != dense));
    } else {
        fill(&mut index, &mut live, OBJECTS);
    }
    assert_eq!((index.len(), live.len()), (OBJECTS, OBJECTS));
    let (ids, objects) = live.into_iter().unzip();
    Corpus {
        reduced,
        cost,
        index,
        dir,
        objects,
        ids,
        query: histogram(&mut rng),
    }
}

impl Drop for Corpus {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The static chain over the live objects, projected and reduced afresh:
/// three stages under the metric cost, two under the other.
fn static_executor(corpus: &Corpus) -> Executor {
    let database = Database::new(corpus.objects.clone(), Arc::clone(&corpus.cost)).unwrap();
    let bundle =
        PersistedReduction::precompute("", corpus.reduced.clone(), database.histograms()).unwrap();
    let executor = Executor::new(QueryPlan::chain(&database, &bundle).unwrap());
    let metric = corpus.cost.is_metric();
    let stages = executor.plan().stage_names();
    assert_eq!(stages.len(), if metric { 3 } else { 2 });
    assert_eq!(stages[0].starts_with("anchor(a="), metric);
    executor
}

/// Both ground distances, fresh and churned.
fn corpora() -> impl Iterator<Item = Corpus> {
    let kinds = [(false, false), (false, true), (true, false), (true, true)];
    kinds
        .into_iter()
        .map(|(metric, churned)| corpus(metric, churned))
}

/// An outcome as `(id, distance-or-bound bits, exact)` rows plus the
/// reason it degraded, every id rewritten by `own`.
fn rows(
    outcome: &QueryOutcome,
    own: impl Fn(usize) -> u64,
) -> (Vec<(u64, u64, bool)>, Option<BudgetReason>) {
    match outcome {
        QueryOutcome::Exact(neighbors) => {
            let row = |n: &emd_query::Neighbor| (own(n.id), n.distance.to_bits(), true);
            (neighbors.iter().map(row).collect(), None)
        }
        QueryOutcome::Degraded(result) => {
            let row = |c: &emd_query::Candidate| (own(c.id), c.bound.to_bits(), c.exact);
            let candidates = result.candidates.iter();
            (candidates.map(row).collect(), Some(result.reason))
        }
    }
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
    for corpus in corpora() {
        pivot_cap_degrades_like_the_static_plan(&corpus);
    }
}

fn pivot_cap_degrades_like_the_static_plan(corpus: &Corpus) {
    let snapshot = corpus.index.snapshot().unwrap();
    let (unbudgeted, unbudgeted_stats) = snapshot.executor().knn(&corpus.query, K).unwrap();

    let budget = Budget::unlimited().with_pivot_cap(5);
    let (outcome, stats) = knn_under(snapshot.executor(), corpus, K, &budget);
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
    // with the same ranking: the snapshot is that plan over a `Database`.
    let static_budget = Budget::unlimited().with_pivot_cap(5);
    let (static_outcome, static_stats) =
        knn_under(&static_executor(corpus), corpus, K, &static_budget);
    assert_eq!(static_outcome, outcome);
    assert_eq!(static_stats, stats);
    assert_eq!(static_budget.pivots_used(), budget.pivots_used());

    // An unlimited budget on the same snapshot is the `knn` sugar's answer.
    let (rerun, rerun_stats) = knn_under(snapshot.executor(), corpus, K, &Budget::unlimited());
    assert_eq!(rerun, QueryOutcome::Exact(unbudgeted));
    assert_eq!(rerun_stats, unbudgeted_stats);
}

#[test]
fn deadlines_and_injected_solve_faults_reach_live_snapshots() {
    for metric in [false, true] {
        deadlines_and_solve_faults_reach(&corpus(metric, false));
    }
}

fn deadlines_and_solve_faults_reach(corpus: &Corpus) {
    let snapshot = corpus.index.snapshot().unwrap();
    let (baseline, _) = snapshot.knn(&corpus.query, K).unwrap();

    let expired = Budget::unlimited().with_deadline(Duration::ZERO);
    let (outcome, _) = knn_under(snapshot.executor(), corpus, K, &expired);
    assert_eq!(
        outcome.degraded().map(|result| result.reason),
        Some(BudgetReason::Deadline)
    );

    // `Budget::note_solve` fault sites: the first solve of the query is a
    // Red-EMD evaluation of the candidate the closed forms ranked first,
    // the last one a refinement.
    let recording = emd_obs::Recording::start();
    let (_, stats) = snapshot.knn(&corpus.query, K).unwrap();
    let solves = recording.finish().counter("core.emd.solves");
    let (_, reduced_solves) = stats.filter_evaluations.last().unwrap();
    assert_eq!(solves as usize, reduced_solves + stats.refinements);
    for solve in [1, solves] {
        let plan: Arc<dyn FaultInjector> = Arc::new(FailPlan::new().exhaust_solve(solve));
        let budget = Budget::unlimited().with_faults(plan);
        let (outcome, _) = knn_under(snapshot.executor(), corpus, K, &budget);
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
    for corpus in corpora() {
        no_candidate_is_lost(&corpus);
    }
}

fn no_candidate_is_lost(corpus: &Corpus) {
    let snapshot = corpus.index.snapshot().unwrap();
    let fixed = static_executor(corpus);
    let mut degraded = 0;
    for cap in (0..).step_by(3) {
        let budget = Budget::unlimited().with_pivot_cap(cap);
        let (outcome, stats) = knn_under(snapshot.executor(), corpus, OBJECTS, &budget);
        let static_budget = Budget::unlimited().with_pivot_cap(cap);
        let (static_outcome, static_stats) = knn_under(&fixed, corpus, OBJECTS, &static_budget);
        assert_eq!(outcome, static_outcome, "cap {cap}");
        assert_eq!(stats, static_stats, "cap {cap}");
        assert_eq!(budget.pivots_used(), static_budget.pivots_used());
        // Through the snapshot's id map, the same rows name the ids
        // `insert` handed out.
        let query = Query {
            budget: Budget::unlimited().with_pivot_cap(cap),
            ..Query::knn(corpus.query.clone(), OBJECTS)
        };
        let (in_ids, _) = snapshot.run(&query).unwrap();
        assert_eq!(
            rows(&in_ids, |id| id as u64),
            rows(&static_outcome, |dense| corpus.ids[dense]),
            "cap {cap}"
        );
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
    for corpus in corpora() {
        warm_start_and_match_the_static_plan(&corpus);
    }
}

fn warm_start_and_match_the_static_plan(corpus: &Corpus) {
    let snapshot = corpus.index.snapshot().unwrap();
    let recording = emd_obs::Recording::start();
    let (live, live_stats) = snapshot.knn(&corpus.query, K).unwrap();
    let registry = recording.finish();
    assert!(registry.counter("transport.warm.attempts") > 0);
    assert_eq!(
        registry.counter("transport.warm.hits"),
        registry.counter("transport.warm.attempts"),
        "same-shape candidates always reuse the previous basis"
    );

    let (fixed, fixed_stats) = static_executor(corpus).knn(&corpus.query, K).unwrap();
    let bits = |(id, distance): (u64, f64)| (id, distance.to_bits());
    let fixed = fixed.iter().map(|n| bits((corpus.ids[n.id], n.distance)));
    assert_eq!(
        live.into_iter().map(bits).collect::<Vec<_>>(),
        fixed.collect::<Vec<_>>(),
        "dense ids are the live objects in insertion order"
    );
    assert_eq!(live_stats, fixed_stats);
}

/// A recovered index holds no projection on disk: replay re-derives each
/// beside the reduced vector, and the recovered snapshot runs the anchor
/// chain to brute force's answer — bit for bit what the index answered
/// before it was dropped.
#[test]
fn a_recovered_index_rederives_the_anchor_projections() {
    let corpus = corpus(true, false);
    let dir = std::env::temp_dir().join(format!("emd-live-budget-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut durable =
        DurableIndex::create(&dir, Arc::clone(&corpus.cost), corpus.reduced.clone()).unwrap();
    for object in &corpus.objects {
        durable.append_insert(object.clone()).unwrap();
    }
    durable.sync().unwrap();
    let before = durable.snapshot().unwrap().knn(&corpus.query, K).unwrap();
    drop(durable);

    let (recovered, report) = DurableIndex::open(&dir).unwrap();
    assert_eq!(report.replayed_records, OBJECTS);
    let snapshot = recovered.snapshot().unwrap();
    let stages = snapshot.executor().plan().stage_names();
    assert!(stages.len() == 3 && stages[0].starts_with("anchor(a="));
    assert_eq!(snapshot.knn(&corpus.query, K).unwrap(), before);
    let brute = brute_force_knn(&corpus.query, &corpus.objects, &corpus.cost, K).unwrap();
    let brute: Vec<(u64, f64)> = brute.iter().map(|n| (n.id as u64, n.distance)).collect();
    assert_eq!(
        before.0, brute,
        "unique optima: warm answers are the cold oracle's bits"
    );
    std::fs::remove_dir_all(&dir).ok();
}
