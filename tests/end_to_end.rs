//! Cross-crate integration tests: generated corpus -> preprocessing ->
//! reductions -> multistep queries, verified against brute force.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use flexemd::core::{emd, Histogram};
use flexemd::data::gaussian::{self, GaussianParams};
use flexemd::data::tiling::{self, TilingParams};
use flexemd::query::scan::brute_force_knn;
use flexemd::query::{
    Database, EmdDistance, Executor, Filter, QueryPlan, ReducedEmdFilter, ReducedImFilter,
};
use flexemd::reduction::fb::{fb_all, fb_mod, FbOptions};
use flexemd::reduction::flow_sample::{draw_sample, FlowSample};
use flexemd::reduction::grid::block_merge;
use flexemd::reduction::kmedoids::kmedoids_reduction;
use flexemd::reduction::ReducedEmd;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Full paper pipeline on the tiling corpus: every strategy, every query,
/// results must equal brute force.
#[test]
fn tiling_corpus_full_pipeline_is_complete() {
    let params = TilingParams {
        width: 6,
        height: 4,
        num_classes: 3,
        per_class: 12,
        ..TilingParams::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    let dataset = tiling::generate(&params, &mut rng);
    let (dataset, queries) = dataset.split_queries(4);
    let cost = Arc::new(dataset.cost.clone());
    let database = Database::new(dataset.histograms, cost.clone()).unwrap();

    // Preprocessing.
    let sample: Vec<Histogram> = draw_sample(database.histograms(), 8, &mut rng)
        .into_iter()
        .cloned()
        .collect();
    let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
    let kmed = kmedoids_reduction(&cost, 6, &mut rng).unwrap().reduction;
    let reductions = vec![
        ("grid", block_merge(6, 4, 2, 2).unwrap()),
        ("kmed", kmed.clone()),
        (
            "fb-mod",
            fb_mod(kmed.clone(), &flows, &cost, FbOptions::default()).reduction,
        ),
        (
            "fb-all",
            fb_all(kmed, &flows, &cost, FbOptions::default()).reduction,
        ),
    ];

    for (name, reduction) in reductions {
        let reduced = ReducedEmd::new(&cost, reduction).unwrap();
        let stages: Vec<Box<dyn Filter>> = vec![
            Box::new(ReducedImFilter::new(&database, reduced.clone()).unwrap()),
            Box::new(ReducedEmdFilter::new(&database, reduced).unwrap()),
        ];
        let refiner = Box::new(EmdDistance::new(&database).unwrap());
        let pipeline = Executor::new(QueryPlan::new(stages, refiner).unwrap());
        for query in &queries {
            let expected = brute_force_knn(query, database.histograms(), &cost, 5).unwrap();
            let (got, stats) = pipeline.knn(query, 5).unwrap();
            let expected_d: Vec<i64> = expected
                .iter()
                .map(|n| (n.distance * 1e9).round() as i64)
                .collect();
            let got_d: Vec<i64> = got
                .iter()
                .map(|n| (n.distance * 1e9).round() as i64)
                .collect();
            assert_eq!(got_d, expected_d, "strategy {name}: distances must match");
            assert!(stats.refinements <= database.len());
            assert!(stats.refinements >= 5);
        }
    }
}

/// The preprocessing investment pays off: the flow-based reduction's
/// filter is at least as tight on average as plain k-medoids.
#[test]
fn flow_based_filters_are_tighter_on_average() {
    let params = GaussianParams {
        dim: 24,
        num_classes: 3,
        per_class: 20,
        ..GaussianParams::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let dataset = gaussian::generate(&params, &mut rng);
    let cost = dataset.cost.clone();
    let database = dataset.histograms;

    let sample: Vec<Histogram> = draw_sample(&database, 12, &mut rng)
        .into_iter()
        .cloned()
        .collect();
    let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
    let kmed = kmedoids_reduction(&cost, 6, &mut rng).unwrap().reduction;
    let fb = fb_all(kmed.clone(), &flows, &cost, FbOptions::default()).reduction;

    let kmed_reduced = ReducedEmd::new(&cost, kmed).unwrap();
    let fb_reduced = ReducedEmd::new(&cost, fb).unwrap();

    let mut kmed_total = 0.0;
    let mut fb_total = 0.0;
    let mut exact_total = 0.0;
    for i in 0..10 {
        for j in 10..30 {
            let x = &database[i];
            let y = &database[j];
            let exact = emd(x, y, &cost).unwrap();
            let k = kmed_reduced.distance(x, y).unwrap();
            let f = fb_reduced.distance(x, y).unwrap();
            assert!(k <= exact + 1e-9, "kmed must lower bound");
            assert!(f <= exact + 1e-9, "fb must lower bound");
            kmed_total += k;
            fb_total += f;
            exact_total += exact;
        }
    }
    assert!(
        fb_total >= kmed_total - 1e-6,
        "flow-based bound sum {fb_total} should not trail k-medoids {kmed_total}"
    );
    assert!(exact_total >= fb_total);
}

/// Serialization round-trip of a corpus through its JSON file.
#[test]
fn artifacts_roundtrip_through_json() {
    let params = GaussianParams {
        dim: 12,
        num_classes: 2,
        per_class: 5,
        ..GaussianParams::default()
    };
    let mut rng = StdRng::seed_from_u64(9);
    let dataset = gaussian::generate(&params, &mut rng);
    let reduction = kmedoids_reduction(&dataset.cost, 4, &mut rng)
        .unwrap()
        .reduction;

    let dir = std::env::temp_dir().join(format!("flexemd-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dataset_path = dir.join("dataset.json");
    flexemd::data::io::save(&dataset, &dataset_path).unwrap();
    let loaded = flexemd::data::io::load(&dataset_path).unwrap();
    assert_eq!(loaded.histograms, dataset.histograms);

    // The loaded corpus still produces identical reduced distances.
    let a = ReducedEmd::new(&dataset.cost, reduction.clone()).unwrap();
    let b = ReducedEmd::new(&loaded.cost, reduction).unwrap();
    let d_a = a
        .distance(&dataset.histograms[0], &dataset.histograms[1])
        .unwrap();
    let d_b = b
        .distance(&loaded.histograms[0], &loaded.histograms[1])
        .unwrap();
    assert_eq!(d_a, d_b);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Range queries through the umbrella crate are complete and consistent
/// with calibrated workloads.
#[test]
fn calibrated_range_queries_return_at_least_k() {
    let params = GaussianParams {
        dim: 16,
        num_classes: 2,
        per_class: 15,
        ..GaussianParams::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    let dataset = gaussian::generate(&params, &mut rng);
    let (dataset, queries) = dataset.split_queries(3);
    let cost = Arc::new(dataset.cost.clone());
    let database = Database::new(dataset.histograms, cost.clone()).unwrap();

    let reduction = kmedoidize(&cost, 5);
    let reduced = ReducedEmd::new(&cost, reduction).unwrap();
    let pipeline = Executor::new(
        QueryPlan::new(
            vec![Box::new(ReducedEmdFilter::new(&database, reduced).unwrap())],
            Box::new(EmdDistance::new(&database).unwrap()),
        )
        .unwrap(),
    );

    // Definition 6: epsilon is the query's exact 5-th neighbour distance.
    for query in &queries {
        let neighbors = brute_force_knn(query, database.histograms(), &cost, 5).unwrap();
        let epsilon = neighbors[4].distance;
        let (hits, _) = pipeline.range(query, epsilon).unwrap();
        assert!(hits.len() >= 5, "calibrated epsilon must admit >= k hits");
        for hit in &hits {
            assert!(hit.distance <= epsilon + 1e-9);
        }
    }
}

fn kmedoidize(
    cost: &flexemd::core::CostMatrix,
    k: usize,
) -> flexemd::reduction::CombiningReduction {
    kmedoids_reduction(cost, k, &mut StdRng::seed_from_u64(3))
        .unwrap()
        .reduction
}
