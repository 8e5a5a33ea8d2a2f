//! Plan/executor equivalence: for random databases and *any* valid
//! filter-chain plan (every stage lower-bounds the exact EMD), the engine
//! returns exactly the brute-force answer set — k-NN and range.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{ground, Histogram};
use emd_query::scan::{brute_force_knn, brute_force_range};
use emd_query::{
    AnchorFilter, Database, EmdDistance, Executor, Filter, Neighbor, QueryPlan, ReducedEmdFilter,
    ReducedImFilter,
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

/// Build one of the valid filter chains for `database`. Every stage of a
/// produced chain lower-bounds the exact EMD, and the chain ranks by the
/// running max of its stages; `0` is the zero-stage sequential scan. The
/// anchor floor has as many anchors as the reduction keeps dimensions.
fn chain(database: &Database, variant: u8, r: CombiningReduction) -> Vec<Box<dyn Filter>> {
    let anchors = r.reduced_dim();
    let reduced = ReducedEmd::new(database.cost(), r).unwrap();
    let anchor = || Box::new(AnchorFilter::new(database, anchors).unwrap());
    match variant {
        0 => vec![],
        1 => vec![Box::new(ReducedEmdFilter::new(database, reduced).unwrap())],
        2 => vec![
            Box::new(ReducedImFilter::new(database, reduced.clone()).unwrap()),
            Box::new(ReducedEmdFilter::new(database, reduced).unwrap()),
        ],
        3 => vec![anchor()],
        4 => vec![
            anchor(),
            Box::new(ReducedImFilter::new(database, reduced.clone()).unwrap()),
            Box::new(ReducedEmdFilter::new(database, reduced).unwrap()),
        ],
        _ => vec![
            anchor(),
            Box::new(ReducedEmdFilter::new(database, reduced).unwrap()),
        ],
    }
}

fn executor(database: &Database, variant: u8, r: CombiningReduction) -> Executor {
    let stages = chain(database, variant, r);
    let refiner = Box::new(EmdDistance::new(database).unwrap());
    Executor::new(QueryPlan::new(stages, refiner).unwrap())
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

    /// Any valid plan answers k-NN exactly like brute force.
    #[test]
    fn any_plan_knn_is_complete(
        database in prop::collection::vec(histogram(), 4..14),
        query in histogram(),
        r in reduction(),
        variant in 0u8..6,
        k in 1usize..6,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let executor = executor(&database, variant, r);
        let expected =
            brute_force_knn(&query, database.histograms(), database.cost(), k).unwrap();
        let (got, stats) = executor.knn(&query, k).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected), "variant {}", variant);
        prop_assert!(stats.refinements <= database.len());
    }

    /// Any valid plan answers range queries exactly like brute force.
    #[test]
    fn any_plan_range_is_complete(
        database in prop::collection::vec(histogram(), 4..12),
        query in histogram(),
        r in reduction(),
        variant in 0u8..6,
        epsilon in 0.0_f64..3.0,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let executor = executor(&database, variant, r);
        let expected =
            brute_force_range(&query, database.histograms(), database.cost(), epsilon).unwrap();
        let (got, _) = executor.range(&query, epsilon).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected), "variant {}", variant);
    }
}
