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
//!
//! That slack is also the one tolerance that admits a cost and the
//! margin KNOP discards with: at every coordinate scale the metric test,
//! the path recognizer, the anchor bound and the chain's stages agree on
//! a Euclidean grid or line, and a key that overshoots a near tie by less
//! than the slack does not cost the neighbour it belongs to.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::ground::Metric;
use emd_core::lower_bounds::AnchorBound;
use emd_core::{distance_slack, emd, ground, CostMatrix, Histogram, PathMetric};
use emd_query::scan::{brute_force_knn, brute_force_range};
use emd_query::{
    ClusteredIndex, Database, DurableIndex, EmdDistance, Executor, Filter, Neighbor, QueryPlan,
    ReducedEmdFilter, ReducedImFilter,
};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
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
    let bundle = PersistedReduction::precompute("", reduced.clone(), database.histograms());
    Executor::new(QueryPlan::chain(database, &bundle.unwrap()).unwrap())
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

/// Bins on a line in shuffled order: the bin with the `r`-th smallest key
/// sits at the sum of the first `r` gaps.
fn shuffled_line() -> impl Strategy<Value = Vec<f64>> {
    (4usize..=24).prop_flat_map(|bins| {
        let gaps = prop::collection::vec(1_u32..4, bins);
        (gaps, prop::collection::vec(0_u64..1_000_000, bins)).prop_map(|(gaps, keys)| {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&bin| (keys[bin], bin));
            let mut positions = vec![0.0; keys.len()];
            let mut at = 0.0;
            for (&bin, gap) in order.iter().zip(gaps) {
                positions[bin] = at;
                at += f64::from(gap);
            }
            positions
        })
    })
}

/// The stage names of [`QueryPlan::chain`] over point masses under `cost`,
/// reduced to `reduced_dim` contiguous bins.
fn chain_stages(cost: CostMatrix, reduced_dim: usize) -> Vec<String> {
    let bins = cost.rows();
    let cost = Arc::new(cost);
    let objects = (0..bins).map(|bin| Histogram::unit(bins, bin).unwrap());
    let database = Database::new(objects.collect(), cost.clone()).unwrap();
    let assignment = (0..bins).map(|bin| bin * reduced_dim / bins).collect();
    let r = CombiningReduction::new(assignment, reduced_dim).unwrap();
    let plan = chain(&database, &ReducedEmd::new(&cost, r).unwrap());
    plan.plan()
        .stage_names()
        .into_iter()
        .map(str::to_owned)
        .collect()
}

/// A chain of `bins` unit steps whose entry `(query, 0)` is raised by
/// `delta`, with point masses around `query` and one object between:
/// `query - 1` at distance 1, whose anchor-0 key is `1 + delta`; a
/// mixture of `query + 1` and `query + 2` at `1 + delta / 2`, keyed
/// below it; point masses farther out. `(cost, query, objects)`, the
/// true neighbour first.
fn near_tie(bins: usize, query: usize, delta: f64) -> (CostMatrix, Histogram, Vec<Histogram>) {
    let raised = |i: usize, j: usize| {
        let step = i.abs_diff(j) as f64;
        if (i, j) == (query, 0) || (i, j) == (0, query) {
            step + delta
        } else {
            step
        }
    };
    let cost = CostMatrix::from_fn(bins, raised).unwrap();
    let mut between = vec![0.0; bins];
    between[query + 1] = 1.0 - delta / 2.0;
    between[query + 2] = delta / 2.0;
    let mut objects = vec![
        Histogram::unit(bins, query - 1).unwrap(),
        Histogram::new(between).unwrap(),
    ];
    let far = (0..query - 1).chain(query + 2..bins);
    objects.extend(far.map(|bin| Histogram::unit(bins, bin).unwrap()));
    (cost, Histogram::unit(bins, query).unwrap(), objects)
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

    /// A Euclidean grid or line scaled by `10^k`, `k` in `-3..=9`, is a
    /// metric at every scale, and every test that admits a cost says so
    /// at the same slack: `is_metric`, the anchor bound, the chain's
    /// anchor stage and — on the line, and only there — `PathMetric::of`.
    #[test]
    fn scaled_costs_agree(line in shuffled_line()) {
        for k in -3..=9 {
            let scale = 10_f64.powi(k);
            // The grid's coordinates scaled, and its distances.
            let points = ground::grid2_positions(8, 6).into_iter();
            let points: Vec<Vec<f64>> =
                points.map(|p| p.iter().map(|x| x * scale).collect()).collect();
            let unit = ground::grid2(8, 6, Metric::Euclidean).unwrap();
            let scaled = unit.entries().iter().map(|c| c * scale).collect();
            for grid in [
                ground::from_points(&points, Metric::Euclidean).unwrap(),
                CostMatrix::new(48, 48, scaled).unwrap(),
            ] {
                prop_assert_eq!(
                    chain_stages(grid.clone(), 12),
                    ["anchor(a=12)", "red-im(d'=12/12)", "red-emd(d'=12/12)"],
                    "8x6 grid at scale 1e{}", k
                );
                prop_assert!(grid.is_metric(), "8x6 grid at scale 1e{}", k);
                prop_assert!(AnchorBound::with_spread_anchors(&grid, 12).is_ok());
                prop_assert!(PathMetric::of(&grid).is_none());
            }

            let points: Vec<Vec<f64>> = line.iter().map(|x| vec![x * scale]).collect();
            let cost = ground::from_points(&points, Metric::Euclidean).unwrap();
            let reduced_dim = line.len() / 2;
            let stages = chain_stages(cost.clone(), reduced_dim);
            prop_assert_eq!(&stages[0], &format!("anchor(a={reduced_dim})"), "line at 1e{}", k);
            prop_assert!(cost.is_metric(), "line at scale 1e{}", k);
            prop_assert!(AnchorBound::with_spread_anchors(&cost, reduced_dim).is_ok());
            prop_assert!(PathMetric::of(&cost).is_some(), "line at scale 1e{}", k);
        }
    }

    /// A cost admitted within the slack — a chain with one entry raised
    /// by less than half of it — lets the anchor floor key the true
    /// neighbour above its distance by less than the slack, above the
    /// threshold a farther candidate set: k-NN and range still refine it
    /// and equal brute force.
    #[test]
    fn a_near_tie_is_never_discarded(
        bins in 6usize..=12,
        at in 0.0_f64..1.0,
        share in 0.2_f64..0.9,
    ) {
        let query = 2 + (at * (bins - 4) as f64) as usize;
        let delta = share * distance_slack(&ground::linear(bins).unwrap()) / 2.0;
        let (cost, query, objects) = near_tie(bins, query, delta);
        prop_assert!(cost.is_metric());
        let cost = Arc::new(cost);
        let database = Database::new(objects.clone(), cost.clone()).unwrap();
        let pairs = (0..bins).map(|bin| bin * (bins / 2) / bins).collect();
        let r = CombiningReduction::new(pairs, bins / 2).unwrap();
        let pipeline = chain(&database, &ReducedEmd::new(&cost, r).unwrap());
        prop_assert!(pipeline.plan().stage_names()[0].starts_with("anchor("));

        let expected = brute_force_knn(&query, &objects, &cost, 1).unwrap();
        prop_assert_eq!(expected[0].id, 0);
        let (got, _) = pipeline.knn(&query, 1).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
        let epsilon = 1.0 + delta / 2.0;
        let expected = brute_force_range(&query, &objects, &cost, epsilon).unwrap();
        let (got, _) = pipeline.range(&query, epsilon).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected));
    }
}
