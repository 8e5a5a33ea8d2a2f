//! The classic bounds of `emd_bench::lower_bounds` on random instances:
//! each sits below the exact EMD, and a plan with any of them as its one
//! stage returns exactly the brute-force answer set — k-NN and range.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_bench::lower_bounds::{CentroidBound, ClassicFilter, ScaledL1};
use emd_core::ground::{self, Metric};
use emd_core::{distance_slack, emd, CostMatrix, Histogram};
use emd_query::scan::{brute_force_knn, brute_force_range};
use emd_query::{Database, EmdDistance, Executor, Neighbor, QueryPlan};
use proptest::prelude::*;
use std::sync::Arc;

/// A normalized histogram of the given dimensionality.
fn histogram(dim: usize) -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, dim).prop_filter_map("positive mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

/// A histogram pair on the 1-D chain ground distance, `dim in 2..=max_dim`.
fn chain_pair(max_dim: usize) -> impl Strategy<Value = (Histogram, Histogram, CostMatrix)> {
    (2..=max_dim).prop_flat_map(|dim| {
        (histogram(dim), histogram(dim)).prop_map(move |(x, y)| {
            let cost = ground::linear(dim).expect("dim >= 2");
            (x, y, cost)
        })
    })
}

const DIM: usize = 6;

/// Stage `variant` of the classic bounds over `database`.
fn classic(database: &Database, variant: u8) -> ClassicFilter {
    match variant {
        0 => ClassicFilter::lb_im(database),
        1 => ClassicFilter::scaled_l1(database),
        _ => ClassicFilter::centroid(database, ground::linear_positions(DIM), Metric::Manhattan)
            .unwrap(),
    }
}

fn executor(database: &Database, variant: u8) -> Executor {
    let refiner = Box::new(EmdDistance::new(database).unwrap());
    let stages = vec![Box::new(classic(database, variant)) as _];
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The centroid and scaled-L1 bounds under-estimate the exact EMD on
    /// a 2-D grid.
    #[test]
    fn classic_bounds_are_lower_bounds(x in histogram(12), y in histogram(12)) {
        let c = ground::grid2(4, 3, Metric::Euclidean).unwrap();
        let exact = emd(&x, &y, &c).unwrap();

        let centroid = CentroidBound::new(
            ground::grid2_positions(4, 3),
            Metric::Euclidean,
        ).unwrap();
        prop_assert!(centroid.bound(&x, &y).unwrap() <= exact + 1e-9);

        let scaled = ScaledL1::new(&c);
        prop_assert!(scaled.bound(&x, &y).unwrap() <= exact + 1e-9);
    }

    /// The same on the 1-D chain, within the slack KNOP discards with.
    #[test]
    fn bounds_sandwich_exact_emd((x, y, cost) in chain_pair(9)) {
        let exact = emd(&x, &y, &cost).expect("emd solves valid pairs");

        let positions = ground::linear_positions(x.dim());
        let centroid = CentroidBound::new(positions, Metric::Euclidean)
            .expect("valid positions")
            .bound(&x, &y)
            .expect("shapes match");
        prop_assert!(centroid <= exact + distance_slack(&cost), "centroid {centroid} > EMD {exact}");

        let scaled = ScaledL1::new(&cost).bound(&x, &y).expect("shapes match");
        prop_assert!(scaled <= exact + distance_slack(&cost), "scaled-L1 {scaled} > EMD {exact}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A `classic -> EMD` plan answers k-NN exactly like brute force.
    #[test]
    fn any_plan_knn_is_complete(
        database in prop::collection::vec(histogram(DIM), 4..14),
        query in histogram(DIM),
        variant in 0u8..3,
        k in 1usize..6,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let executor = executor(&database, variant);
        let expected =
            brute_force_knn(&query, database.histograms(), database.cost(), k).unwrap();
        let (got, stats) = executor.knn(&query, k).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected), "variant {}", variant);
        prop_assert!(stats.refinements <= database.len());
    }

    /// A `classic -> EMD` plan answers range queries exactly like brute
    /// force.
    #[test]
    fn any_plan_range_is_complete(
        database in prop::collection::vec(histogram(DIM), 4..12),
        query in histogram(DIM),
        variant in 0u8..3,
        epsilon in 0.0_f64..3.0,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let executor = executor(&database, variant);
        let expected =
            brute_force_range(&query, database.histograms(), database.cost(), epsilon).unwrap();
        let (got, _) = executor.range(&query, epsilon).unwrap();
        prop_assert_eq!(canonical(&got), canonical(&expected), "variant {}", variant);
    }
}
