//! Completeness of multistep query processing: against random databases,
//! queries and reductions, the filter-and-refine pipelines return exactly
//! the brute-force answers (no false dismissals — the paper's central
//! correctness claim for its filters).
//!
//! Every pipeline here refines warm, so its refinements stop at a bound
//! above the k-th distance (or ε) whenever the solver can prove one; the
//! oracle solves every object cold and to the end. Agreement is the
//! soundness of those bounds end to end: through a filter chain, a
//! clustered candidate source and a live snapshot (which runs the same
//! chain, lazily, over whatever an insert / remove / compact history
//! left alive), on a tie-prone integer ground distance. That distance is
//! a metric, so every chain here is [`QueryPlan::chain`]'s `anchor ->
//! red-im -> red-emd`, over a scan or over the clustered traversal —
//! stages that do not bound one another, ranked by their running max; over a cost that is no metric the plan is the paper's two stages
//! and the answers are brute force's all the same. Returned distances
//! are held to [`distance_slack`], the warm/cold contract.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{distance_slack, emd, ground, CostMatrix, Histogram};
use emd_query::scan::{brute_force_knn, brute_force_range};
use emd_query::{
    ClusteredIndex, Database, DurableIndex, EmdDistance, Executor, Filter, Neighbor, QueryPlan,
    ReducedEmdFilter, ReducedImFilter,
};
use emd_reduction::{CombiningReduction, ReducedEmd};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const DIM: usize = 6;

/// A fresh directory per live index — proptest cases must not share one.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("emd-completeness-{}-{id}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn histogram() -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, DIM).prop_filter_map("positive mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

fn reduction() -> impl Strategy<Value = CombiningReduction> {
    (1..=DIM).prop_flat_map(|k| {
        (
            Just(k),
            prop::collection::vec(0..k, DIM),
            prop::sample::subsequence((0..DIM).collect::<Vec<_>>(), k),
        )
            .prop_map(|(k, mut assignment, seeds)| {
                for (group, &dimension) in seeds.iter().enumerate() {
                    assignment[dimension] = group;
                }
                CombiningReduction::new(assignment, k).expect("valid by construction")
            })
    })
}

/// `stages` in front of the exact EMD over `database`.
fn executor(database: &Database, stages: Vec<Box<dyn Filter>>) -> Executor {
    let refiner = Box::new(EmdDistance::new(database).unwrap());
    Executor::new(QueryPlan::new(stages, refiner).unwrap())
}

/// The Figure 10 chain over its metric floor, as every plan assembles it.
fn chain(database: &Database, reduced: &ReducedEmd) -> Executor {
    let red_im = ReducedImFilter::new(database, reduced.clone()).unwrap();
    Executor::new(QueryPlan::chain(database, red_im).unwrap())
}

/// Every returned distance is its pair's cold distance to within the
/// warm/cold contract.
fn assert_within_slack(
    query: &Histogram,
    objects: &[Histogram],
    cost: &CostMatrix,
    got: &[Neighbor],
) {
    for neighbor in got {
        let cold = emd(query, &objects[neighbor.id], cost).unwrap();
        assert!(
            (neighbor.distance - cold).abs() <= distance_slack(cost),
            "object {}: {} against a cold {cold}",
            neighbor.id,
            neighbor.distance
        );
    }
}

/// Canonicalize results so equal-distance ties compare equal.
fn canonical(neighbors: &[Neighbor]) -> Vec<(i64, usize)> {
    let mut pairs: Vec<(i64, usize)> = neighbors
        .iter()
        .map(|n| ((n.distance * 1e9).round() as i64, n.id))
        .collect();
    pairs.sort_unstable();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chained anchor -> Red-IM -> Red-EMD -> EMD k-NN and range equal
    /// brute force.
    #[test]
    fn chained_knn_is_complete(
        database in prop::collection::vec(histogram(), 4..14),
        query in histogram(),
        r in reduction(),
        k in 1usize..6,
        epsilon in 0.0_f64..3.0,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost.clone()).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let pipeline = chain(&database, &reduced);
        let stages = pipeline.plan().stage_names();
        prop_assert!(stages.len() == 3 && stages[0].starts_with("anchor(a="));

        let expected = brute_force_knn(&query, database.histograms(), &cost, k).unwrap();
        let (got, stats) = pipeline.knn(&query, k).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
        assert_within_slack(&query, database.histograms(), &cost, &got);
        prop_assert!(stats.refinements <= database.len());
        let expected = brute_force_range(&query, database.histograms(), &cost, epsilon).unwrap();
        let (got, _) = pipeline.range(&query, epsilon).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
    }

    /// Squared chain distances are no metric: the anchor bound does not
    /// exist, `QueryPlan::chain` is the paper's two stages — the plan a
    /// caller assembles from them by hand, row for row — and k-NN and
    /// range still equal brute force.
    #[test]
    fn a_non_metric_cost_keeps_the_papers_chain(
        database in prop::collection::vec(histogram(), 4..14),
        query in histogram(),
        r in reduction(),
        k in 1usize..6,
        epsilon in 0.0_f64..6.0,
    ) {
        let squared = |i: usize, j: usize| (i as f64 - j as f64).powi(2);
        let cost = Arc::new(CostMatrix::from_fn(DIM, squared).unwrap());
        let database = Database::new(database, cost.clone()).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let pipeline = chain(&database, &reduced);
        let by_hand = executor(
            &database,
            vec![
                Box::new(ReducedImFilter::new(&database, reduced.clone()).unwrap()),
                Box::new(ReducedEmdFilter::new(&database, reduced).unwrap()),
            ],
        );
        let stages = pipeline.plan().stage_names();
        prop_assert!(stages.len() == 2 && stages[0].starts_with("red-im("));
        prop_assert_eq!(stages, by_hand.plan().stage_names());

        let expected = brute_force_knn(&query, database.histograms(), &cost, k).unwrap();
        let (got, stats) = pipeline.knn(&query, k).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
        prop_assert_eq!((got, stats), by_hand.knn(&query, k).unwrap());
        let expected = brute_force_range(&query, database.histograms(), &cost, epsilon).unwrap();
        let (got, stats) = pipeline.range(&query, epsilon).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
        prop_assert_eq!((got, stats), by_hand.range(&query, epsilon).unwrap());
    }

    /// Single-stage Red-EMD range query equals brute force.
    #[test]
    fn range_is_complete(
        database in prop::collection::vec(histogram(), 4..12),
        query in histogram(),
        r in reduction(),
        epsilon in 0.0_f64..3.0,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost.clone()).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let pipeline = executor(
            &database,
            vec![Box::new(ReducedEmdFilter::new(&database, reduced).unwrap())],
        );

        let expected = brute_force_range(&query, database.histograms(), &cost, epsilon).unwrap();
        let (got, _) = pipeline.range(&query, epsilon).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
    }

    /// Asymmetric reductions (query unreduced) are also complete.
    #[test]
    fn asymmetric_knn_is_complete(
        database in prop::collection::vec(histogram(), 4..10),
        query in histogram(),
        r2 in reduction(),
        k in 1usize..4,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost.clone()).unwrap();
        let r1 = CombiningReduction::identity(DIM).unwrap();
        let reduced = ReducedEmd::with_asymmetric(&cost, r1, r2).unwrap();
        let pipeline = executor(
            &database,
            vec![Box::new(ReducedEmdFilter::new(&database, reduced).unwrap())],
        );
        let expected = brute_force_knn(&query, database.histograms(), &cost, k).unwrap();
        let (got, _) = pipeline.knn(&query, k).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
    }

    /// A clustered candidate source, the chain over its traversal, in
    /// front of the warm refiner: k-NN and range equal brute force. (Contiguous pairs, `d' = 3`: the reduced cost keeps
    /// the zero diagonal the pruning needs.)
    #[test]
    fn clustered_source_is_complete(
        database in prop::collection::vec(histogram(), 4..20),
        query in histogram(),
        k in 1usize..6,
        epsilon in 0.0_f64..3.0,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost.clone()).unwrap();
        let r = CombiningReduction::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        let index = ClusteredIndex::build(&database, ReducedEmd::new(&cost, r).unwrap(), 1.0).unwrap();
        let refiner = Box::new(EmdDistance::new(&database).unwrap());
        let pipeline = Executor::new(
            QueryPlan::new(Vec::new(), refiner).unwrap().with_source(Box::new(index)).unwrap(),
        );

        let expected = brute_force_knn(&query, database.histograms(), &cost, k).unwrap();
        let (got, _) = pipeline.knn(&query, k).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
        assert_within_slack(&query, database.histograms(), &cost, &got);
        let expected = brute_force_range(&query, database.histograms(), &cost, epsilon).unwrap();
        let (got, _) = pipeline.range(&query, epsilon).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
    }

    /// A live snapshot after any interleaving of inserts, removals and
    /// compactions: k-NN and range, in the index's own ids, equal brute
    /// force over the survivors — and equal the static
    /// `anchor -> Red-IM -> Red-EMD -> EMD` plan over the same survivors,
    /// whose chain the snapshot runs over projections made at insert.
    #[test]
    fn dynamic_snapshot_is_complete(
        ops in prop::collection::vec((histogram(), 0usize..8), 4..24),
        query in histogram(),
        r in reduction(),
        k in 1usize..6,
        epsilon in 0.0_f64..3.0,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let dir = scratch_dir();
        let mut index = DurableIndex::create(&dir, cost.clone(), reduced.clone()).unwrap();
        let mut live: Vec<(u64, Histogram)> = Vec::new();
        for (histogram, lot) in &ops {
            match lot {
                // One op in eight compacts, one in four removes the
                // oldest survivor (never the last one), the rest insert.
                0 => {
                    index.compact().unwrap();
                }
                1 | 2 if live.len() > 1 => {
                    let (id, _) = live.remove(0);
                    prop_assert!(index.append_remove(id).unwrap());
                }
                _ => live.push((index.append_insert(histogram.clone()).unwrap(), histogram.clone())),
            }
        }
        if live.is_empty() {
            live.push((index.append_insert(query.clone()).unwrap(), query.clone()));
        }
        let survivors: Vec<Histogram> = live.iter().map(|(_, h)| h.clone()).collect();
        let snapshot = index.snapshot().unwrap();
        drop(index);
        std::fs::remove_dir_all(&dir).ok();
        let as_neighbors = |pairs: Vec<(u64, f64)>| -> Vec<Neighbor> {
            pairs
                .into_iter()
                .map(|(id, distance)| Neighbor {
                    id: live.binary_search_by_key(&id, |(id, _)| *id).expect("a live id"),
                    distance,
                })
                .collect()
        };
        let database = Database::new(survivors.clone(), cost.clone()).unwrap();
        let fixed = chain(&database, &reduced);
        prop_assert_eq!(snapshot.executor().plan().stage_names(), fixed.plan().stage_names());
        prop_assert_eq!(fixed.plan().stage_names().len(), 3);

        let expected = brute_force_knn(&query, &survivors, &cost, k).unwrap();
        let (got, stats) = snapshot.knn(&query, k).unwrap();
        let (fixed_got, fixed_stats) = fixed.knn(&query, k).unwrap();
        prop_assert_eq!(canonical(&as_neighbors(got.clone())), canonical(&expected));
        prop_assert_eq!(as_neighbors(got), fixed_got);
        prop_assert_eq!(stats, fixed_stats);
        let expected = brute_force_range(&query, &survivors, &cost, epsilon).unwrap();
        let (got, stats) = snapshot.range(&query, epsilon).unwrap();
        let (fixed_got, fixed_stats) = fixed.range(&query, epsilon).unwrap();
        prop_assert_eq!(canonical(&as_neighbors(got.clone())), canonical(&expected));
        prop_assert_eq!(as_neighbors(got), fixed_got);
        prop_assert_eq!(stats, fixed_stats);
    }
}
