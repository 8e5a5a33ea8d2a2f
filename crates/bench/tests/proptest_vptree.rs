//! Property-based validation of the VP-tree against brute force under a
//! metric ground distance.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_bench::vptree::VpTree;
use emd_core::{ground, Histogram};
use emd_query::scan::{brute_force_knn, brute_force_range};
use emd_query::Database;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// VP-tree k-NN equals brute force (distances; ids up to exact ties).
    #[test]
    fn knn_matches_brute_force(
        database in prop::collection::vec(histogram(), 3..20),
        query in histogram(),
        k in 1usize..6,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost.clone()).unwrap();
        let tree = VpTree::build(&database).unwrap();
        let expected = brute_force_knn(&query, database.histograms(), &cost, k).unwrap();
        let (got, stats) = tree.knn(&query, k).unwrap();
        let e: Vec<i64> = expected.iter().map(|n| (n.distance * 1e9).round() as i64).collect();
        let g: Vec<i64> = got.iter().map(|n| (n.distance * 1e9).round() as i64).collect();
        prop_assert_eq!(g, e);
        prop_assert!(stats.distance_computations <= database.len());
    }

    /// VP-tree range query equals brute force exactly (hit sets, not just
    /// distances — boundary inclusion must match).
    #[test]
    fn range_matches_brute_force(
        database in prop::collection::vec(histogram(), 3..16),
        query in histogram(),
        epsilon in 0.0_f64..3.0,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost.clone()).unwrap();
        let tree = VpTree::build(&database).unwrap();
        let expected = brute_force_range(&query, database.histograms(), &cost, epsilon).unwrap();
        let (got, _) = tree.range(&query, epsilon).unwrap();
        prop_assert_eq!(
            got.iter().map(|n| n.id).collect::<Vec<_>>(),
            expected.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }
}
