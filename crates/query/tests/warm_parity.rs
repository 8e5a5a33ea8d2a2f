//! Query-level warm-start regression: `Executor::knn` and
//! `Executor::range` answers (ids, distances, refinement counts,
//! per-stage stats) must be **bit-identical** between the default
//! warm-start mode — whose refinements stop at a bound above the k-th
//! distance or ε — and a forced cold-start-every-candidate mode, which
//! has no bound to stop on and solves every candidate to the end:
//! query by query, over a workload's summed stats, and through a live
//! snapshot. And one level down: a reduced stage's evaluator *is* the
//! exact stage's over the reduced space, so it inherits the cutoff.
//!
//! The corpora use full-support histograms (every bin above 3e-3) under
//! continuous random cost matrices, so every LP has a generically unique
//! optimal basis, no basic flow comes near the solver's `EPS`, and
//! bit-parity is exact — the case where [`emd_core::distance_slack`],
//! the warm/cold contract, is zero in practice. One cost is arbitrary
//! (no metric: the chain is the paper's two stages); the other is the
//! Euclidean distances of random points, a metric, so the same suites
//! run the `anchor -> red-im -> red-emd` chain of `QueryPlan::chain`.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::ground::{self, Metric};
use emd_core::{distance_slack, emd, Bounded, Budget, CostMatrix, Histogram};
use emd_query::scan::{brute_force_knn, brute_force_range};
use emd_query::{
    AnchorFilter, Database, DurableIndex, EmdDistance, Executor, Filter, Query, QueryPlan,
    QueryStats, ReducedEmdFilter, ReducedImFilter,
};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const DIM: usize = 16;
const OBJECTS: usize = 48;
const QUERIES: usize = 6;
const K: usize = 5;
const SEED: u64 = 20080609;

fn random_histogram(rng: &mut StdRng) -> Histogram {
    // Strictly positive bins: full support, so every stripped tableau for
    // one query has the same shape and warm starts actually engage.
    let bins: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.05_f64..1.0)).collect();
    Histogram::normalized(bins).unwrap()
}

/// A continuous random cost matrix — no ties, hence a unique optimal
/// basis for every LP and well-defined warm/cold bit-parity.
fn random_cost(rng: &mut StdRng) -> CostMatrix {
    let costs: Vec<f64> = (0..DIM * DIM)
        .map(|_| rng.gen_range(0.01_f64..4.0))
        .collect();
    CostMatrix::new(DIM, DIM, costs).unwrap()
}

/// The Euclidean distances of `DIM` random points in space: as
/// continuous as [`random_cost`], and a metric.
fn random_metric(rng: &mut StdRng) -> CostMatrix {
    let point = |_| (0..3).map(|_| rng.gen_range(0.0_f64..4.0)).collect();
    let points: Vec<Vec<f64>> = (0..DIM).map(point).collect();
    ground::from_points(&points, Metric::Euclidean).unwrap()
}

type Corpus = (Database, Vec<Histogram>, ReducedEmd);

fn corpus() -> Corpus {
    corpus_under(random_cost)
}

/// The arbitrary cost and the metric one.
fn corpora() -> [Corpus; 2] {
    [corpus(), corpus_under(random_metric)]
}

fn corpus_under(cost: fn(&mut StdRng) -> CostMatrix) -> Corpus {
    let mut rng = StdRng::seed_from_u64(SEED);
    let cost = cost(&mut rng);
    let objects: Vec<Histogram> = (0..OBJECTS).map(|_| random_histogram(&mut rng)).collect();
    let queries: Vec<Histogram> = (0..QUERIES).map(|_| random_histogram(&mut rng)).collect();
    let database = Database::new(objects, Arc::new(cost)).unwrap();
    let assignment: Vec<usize> = (0..DIM).map(|i| i / 2).collect();
    let reduction = CombiningReduction::new(assignment, DIM / 2).unwrap();
    let reduced = ReducedEmd::new(database.cost(), reduction).unwrap();
    (database, queries, reduced)
}

/// Build the chain `QueryPlan::chain` builds (the anchor floor where the
/// cost is a metric, then Red-IM -> Red-EMD -> exact EMD refiner) with
/// warm-start contexts enabled or forced off on every solver-backed
/// stage.
fn executor(database: &Database, reduced: &ReducedEmd, warm: bool) -> Executor {
    let mut stages: Vec<Box<dyn Filter>> = vec![
        Box::new(ReducedImFilter::new(database, reduced.clone()).unwrap()),
        Box::new(
            ReducedEmdFilter::new(database, reduced.clone())
                .unwrap()
                .with_warm_start(warm),
        ),
    ];
    if let Ok(floor) = AnchorFilter::new(database, reduced.r2().reduced_dim()) {
        stages.insert(0, Box::new(floor));
    }
    let refiner = Box::new(EmdDistance::new(database).unwrap().with_warm_start(warm));
    let executor = Executor::new(QueryPlan::new(stages, refiner).unwrap());
    let bundle = PersistedReduction::precompute("", reduced.clone(), database.histograms());
    let chain = QueryPlan::chain(database, &bundle.unwrap()).unwrap();
    assert_eq!(executor.plan().stage_names(), chain.stage_names());
    assert_eq!(
        chain.stage_names().len(),
        if database.cost().is_metric() { 3 } else { 2 }
    );
    executor
}

/// Warm and cold runs must agree on everything but how many refinements
/// were cut: only a warm solve has a bound to stop on, and it may only
/// stop on candidates that are not part of the answer.
fn assert_stats_match(warm: &QueryStats, cold: &QueryStats, context: &str) {
    assert_eq!(cold.refinements_cut, 0, "{context}: a cold solve was cut");
    assert!(
        warm.refinements_cut <= warm.refinements - warm.results,
        "{context}: {warm:?} cut a returned neighbor"
    );
    let uncut = QueryStats {
        refinements_cut: 0,
        ..warm.clone()
    };
    assert_eq!(
        &uncut, cold,
        "{context}: refinement counts and per-stage evaluations"
    );
}

#[test]
fn knn_results_bit_identical_warm_vs_cold_sequential() {
    let mut cut = 0;
    for (database, queries, reduced) in corpora() {
        cut += knn_bit_identical_warm_vs_cold(&database, &queries, &reduced);
    }
    assert!(cut > 0, "no warm refinement was cut: the parity is vacuous");
}

/// Refinements cut along the way.
fn knn_bit_identical_warm_vs_cold(
    database: &Database,
    queries: &[Histogram],
    reduced: &ReducedEmd,
) -> usize {
    let warm = executor(database, reduced, true);
    let cold = executor(database, reduced, false);
    let mut cut = 0;
    for query in queries {
        let (warm_neighbors, warm_stats) = warm.knn(query, K).unwrap();
        let (cold_neighbors, cold_stats) = cold.knn(query, K).unwrap();
        assert_eq!(warm_neighbors.len(), cold_neighbors.len());
        for (w, c) in warm_neighbors.iter().zip(&cold_neighbors) {
            assert_eq!(w.id, c.id);
            assert_eq!(
                w.distance.to_bits(),
                c.distance.to_bits(),
                "distance bits diverged for object {}",
                w.id
            );
        }
        assert_stats_match(&warm_stats, &cold_stats, "knn");
        cut += warm_stats.refinements_cut;
    }
    cut
}

/// Range queries at radii around each query's k-th distance — below it,
/// exactly on it (the boundary hit must survive) and above it.
#[test]
fn range_results_bit_identical_warm_vs_cold() {
    let mut cut = 0;
    for (database, queries, reduced) in corpora() {
        cut += range_bit_identical_warm_vs_cold(&database, &queries, &reduced);
    }
    assert!(cut > 0, "no warm refinement was cut: the parity is vacuous");
}

/// Refinements cut along the way.
fn range_bit_identical_warm_vs_cold(
    database: &Database,
    queries: &[Histogram],
    reduced: &ReducedEmd,
) -> usize {
    let warm = executor(database, reduced, true);
    let cold = executor(database, reduced, false);
    let mut cut = 0;
    for query in queries {
        let (neighbors, _) = cold.knn(query, K).unwrap();
        let kth = neighbors[K - 1].distance;
        for epsilon in [0.5 * kth, kth, 1.2 * kth] {
            let (warm_hits, warm_stats) = warm.range(query, epsilon).unwrap();
            let (cold_hits, cold_stats) = cold.range(query, epsilon).unwrap();
            assert_eq!(warm_hits, cold_hits, "epsilon {epsilon}");
            assert_stats_match(&warm_stats, &cold_stats, "range");
            cut += warm_stats.refinements_cut;
        }
        assert_eq!(warm.range(query, kth).unwrap().0.len(), K);
    }
    cut
}

/// A live snapshot with tombstones (dense ids and storage slots part
/// ways) against the cold brute-force oracle over the survivors, and
/// against the warm and cold static chains over them: the snapshot runs
/// that chain, so its refinement counts and per-stage rows are theirs.
/// (The clustered source needs a zero-diagonal cost;
/// `proptest_completeness` covers it.)
#[test]
fn live_snapshots_match_the_cold_oracle() {
    let mut cut = 0;
    for corpus in corpora() {
        cut += live_snapshot_matches_the_cold_oracle(corpus);
    }
    assert!(cut > 0, "no warm refinement was cut: the parity is vacuous");
}

/// Refinements cut along the way.
fn live_snapshot_matches_the_cold_oracle((database, queries, reduced): Corpus) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let name = format!(
        "emd-warm-parity-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    let cost = Arc::new(database.cost().clone());
    let mut live = DurableIndex::create(&dir, cost, reduced.clone()).unwrap();
    for histogram in database.histograms() {
        live.append_insert(histogram.clone()).unwrap();
    }
    let survivors: Vec<usize> = (0..OBJECTS).filter(|id| id % 5 != 0).collect();
    for id in (0..OBJECTS).filter(|id| id % 5 == 0) {
        assert!(live.append_remove(id as u64).unwrap());
    }
    let live_objects: Vec<Histogram> = survivors
        .iter()
        .map(|&id| database.histograms()[id].clone())
        .collect();
    let snapshot = live.snapshot().unwrap();
    drop(live);
    std::fs::remove_dir_all(&dir).ok();
    let survivor_database =
        Database::new(live_objects.clone(), Arc::new(database.cost().clone())).unwrap();
    let warm = executor(&survivor_database, &reduced, true);
    let cold = executor(&survivor_database, &reduced, false);

    let mut cut = 0;
    for query in &queries {
        let in_live_ids = |neighbors: Vec<emd_query::Neighbor>| -> Vec<(u64, f64)> {
            neighbors
                .into_iter()
                .map(|n| (survivors[n.id] as u64, n.distance))
                .collect()
        };
        let expected = brute_force_knn(query, &live_objects, database.cost(), K).unwrap();
        let kth = expected[K - 1].distance;
        let (got, stats) = snapshot.knn(query, K).unwrap();
        assert_eq!(got, in_live_ids(expected));
        assert_eq!(stats, warm.knn(query, K).unwrap().1);
        assert_stats_match(&stats, &cold.knn(query, K).unwrap().1, "live knn");
        cut += stats.refinements_cut;
        let expected_hits = brute_force_range(query, &live_objects, database.cost(), kth).unwrap();
        let (hits, stats) = snapshot.range(query, kth).unwrap();
        assert_eq!(hits, in_live_ids(expected_hits));
        assert_eq!(stats, warm.range(query, kth).unwrap().1);
        assert_stats_match(&stats, &cold.range(query, kth).unwrap().1, "live range");
        cut += stats.refinements_cut;
    }
    cut
}

/// A workload of queries through `run` on one warm and one cold
/// executor: per-query bits equal, and the summed stats match.
#[test]
fn knn_results_bit_identical_warm_vs_cold_batched() {
    let (database, queries, reduced) = corpus();
    let warm = executor(&database, &reduced, true);
    let cold = executor(&database, &reduced, false);
    let mut warm_total = QueryStats::default();
    let mut cold_total = QueryStats::default();
    for (i, query) in queries.iter().enumerate() {
        let request = Query::knn(query.clone(), K);
        let (warm_outcome, warm_stats) = warm.run(&request).unwrap();
        let (cold_outcome, cold_stats) = cold.run(&request).unwrap();
        let (w_neighbors, c_neighbors) =
            (warm_outcome.exact().unwrap(), cold_outcome.exact().unwrap());
        assert_eq!(w_neighbors.len(), c_neighbors.len());
        for (w, c) in w_neighbors.iter().zip(c_neighbors) {
            assert_eq!(w.id, c.id, "query {i}");
            assert_eq!(w.distance.to_bits(), c.distance.to_bits(), "query {i}");
        }
        warm_total.accumulate(&warm_stats);
        cold_total.accumulate(&cold_stats);
    }
    assert_stats_match(&warm_total, &cold_total, "workload totals");
}

#[test]
fn warm_contexts_actually_warm_start() {
    // Sanity check the regression is non-vacuous: the warm executor's
    // transport layer must report warm attempts and hits under an obs
    // recording scope, and the cold executor must report none.
    let (database, queries, reduced) = corpus();
    for (warm, expect_warm) in [(true, true), (false, false)] {
        let executor = executor(&database, &reduced, warm);
        let recording = emd_obs::Recording::start();
        executor.knn(&queries[0], K).unwrap();
        let registry = recording.finish();
        let attempts = registry.counter("transport.warm.attempts");
        let hits = registry.counter("transport.warm.hits");
        if expect_warm {
            assert!(attempts > 0, "warm mode recorded no warm attempts");
            assert!(hits > 0, "warm mode recorded no warm hits");
        } else {
            assert_eq!(attempts, 0, "cold mode must never attempt a warm start");
        }
    }
}

/// The cold oracle must not depend on the machinery it checks: with
/// `with_warm_start(false)` every evaluation equals a standalone
/// `emd(..)` of its own pair to the bit, whatever was solved before it,
/// no finite cutoff ever stops it, and no warm start is attempted.
#[test]
fn cold_evaluators_are_independent_of_the_warm_machinery() {
    let (database, queries, reduced) = corpus();
    let exact = EmdDistance::new(&database).unwrap().with_warm_start(false);
    let filter = ReducedEmdFilter::new(&database, reduced.clone())
        .unwrap()
        .with_warm_start(false);
    let query = &queries[0];
    let reduced_query = reduced.reduce_first(query).unwrap();
    let budget = Budget::unlimited();

    let recording = emd_obs::Recording::start();
    let mut prepared_exact = exact.prepare(query, &budget).unwrap();
    let mut prepared_filter = filter.prepare(query, &budget).unwrap();
    for (id, object) in database.histograms().iter().enumerate() {
        let alone = emd(query, object, database.cost()).unwrap();
        for cutoff in [0.0, 0.5 * alone, alone, f64::INFINITY] {
            match prepared_exact.distance_within(id, cutoff).unwrap() {
                Bounded::Optimal(d) => assert_eq!(d.to_bits(), alone.to_bits(), "object {id}"),
                Bounded::Above(bound) => {
                    panic!("cold solve of object {id} stopped at {bound} above cutoff {cutoff}")
                }
            }
        }
        let reduced_alone = emd(
            &reduced_query,
            &filter.reduced_database()[id],
            reduced.reduced_cost(),
        )
        .unwrap();
        let bound = prepared_filter.distance(id).unwrap();
        assert_eq!(bound.to_bits(), reduced_alone.to_bits(), "object {id}");
    }
    let registry = recording.finish();
    assert_eq!(registry.counter("transport.warm.attempts"), 0);
    assert_eq!(registry.counter("transport.solve.cut"), 0);
}

/// A random reduction of `DIM` bins onto 2..=8 groups, none empty.
fn reduction() -> impl Strategy<Value = CombiningReduction> {
    (2..=DIM / 2).prop_flat_map(|k| {
        (
            prop::collection::vec(0..k, DIM),
            prop::sample::subsequence((0..DIM).collect::<Vec<_>>(), k),
        )
            .prop_map(move |(mut assignment, seeds)| {
                for (group, &dimension) in seeds.iter().enumerate() {
                    assignment[dimension] = group;
                }
                CombiningReduction::new(assignment, k).expect("valid by construction")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Red-EMD is the EMD over the reduced space: a reduced stage's
    /// evaluator and `EmdDistance` over a `Database` of the reduced arena
    /// under `C'` answer the same calls with the same bits — warm and
    /// cold, `R1 = R2` and `R1 != R2` — and under a cutoff the stage stops
    /// only at a bound in `(cutoff, Red-EMD]` (debug builds re-solve
    /// every such cut cold, `certify::debug_certify_cut`).
    #[test]
    fn a_reduced_stage_is_the_exact_stage_over_the_reduced_space(
        seed in 0u64..u64::MAX,
        r1 in reduction(),
        r2 in reduction(),
        symmetric in 0u8..2,
        warm in 0u8..2,
        scale in 0.2_f64..1.4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cost = Arc::new(random_cost(&mut rng));
        let objects: Vec<Histogram> = (0..12).map(|_| random_histogram(&mut rng)).collect();
        let query = random_histogram(&mut rng);
        let database = Database::new(objects, Arc::clone(&cost)).unwrap();
        let r1 = if symmetric == 1 { r2.clone() } else { r1 };
        let reduced = ReducedEmd::with_asymmetric(&cost, r1, r2).unwrap();
        let stage = ReducedEmdFilter::new(&database, reduced.clone())
            .unwrap()
            .with_warm_start(warm == 1);

        let reduced_query = reduced.reduce_first(&query).unwrap();
        let reduced_cost = Arc::new(reduced.reduced_cost().clone());
        let space = Database::new(stage.reduced_database().to_vec(), reduced_cost).unwrap();
        let exact = EmdDistance::new(&space).unwrap().with_warm_start(warm == 1);

        let budget = Budget::unlimited();
        let mut over_stage = stage.prepare(&query, &budget).unwrap();
        let mut over_space = exact.prepare(&reduced_query, &budget).unwrap();
        for (id, object) in space.histograms().iter().enumerate() {
            let alone = emd(&reduced_query, object, space.cost()).unwrap();
            let cutoff = scale * alone;
            let within = over_stage.distance_within(id, cutoff).unwrap();
            prop_assert_eq!(within, over_space.distance_within(id, cutoff).unwrap());
            match within {
                Bounded::Optimal(d) => {
                    prop_assert!((d - alone).abs() <= distance_slack(space.cost()));
                }
                Bounded::Above(bound) => {
                    prop_assert!(warm == 1, "a cold solve was cut");
                    prop_assert!(cutoff < bound && bound <= alone * (1.0 + 1e-9));
                }
            }
            let uncut = over_stage.distance(id).unwrap();
            prop_assert_eq!(uncut.to_bits(), over_space.distance(id).unwrap().to_bits());
            if warm == 0 {
                prop_assert_eq!(uncut.to_bits(), alone.to_bits());
            }
        }
        prop_assert_eq!(over_stage.evaluations(), over_space.evaluations());
    }
}

/// The cutoff a reduced stage inherits is not vacuous: run warm, it
/// stops some evaluations early, each at a bound in `(cutoff, Red-EMD]`.
#[test]
fn a_warm_reduced_stage_stops_at_certified_bounds() {
    let (database, queries, reduced) = corpus();
    let stage = ReducedEmdFilter::new(&database, reduced.clone()).unwrap();
    let budget = Budget::unlimited();
    let mut cut = 0;
    for query in &queries {
        let reduced_query = reduced.reduce_first(query).unwrap();
        let mut prepared = stage.prepare(query, &budget).unwrap();
        for (id, object) in stage.reduced_database().iter().enumerate() {
            let alone = emd(&reduced_query, object, reduced.reduced_cost()).unwrap();
            let cutoff = 0.5 * alone;
            if let Bounded::Above(bound) = prepared.distance_within(id, cutoff).unwrap() {
                assert!(cutoff < bound && bound <= alone * (1.0 + 1e-9));
                cut += 1;
            }
        }
    }
    assert!(cut > 0, "no reduced evaluation was cut");
}
