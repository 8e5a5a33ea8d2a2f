//! Properties of the reduction-construction heuristics themselves
//! (complementing `proptest_theorems.rs`, which checks the paper's
//! theorems about *any* reduction).

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod support;

use emd_core::{ground, CostMatrix, Histogram};
use emd_reduction::fb::{fb_all, fb_mod, FbOptions};
use emd_reduction::flow_sample::FlowSample;
use emd_reduction::kmedoids::kmedoids_reduction;
use emd_reduction::tightness::TightnessEvaluator;
use emd_reduction::CombiningReduction;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::exhaustive::{for_each_partition, optimal_by_tightness, stirling2};

const DIM: usize = 7;

fn histogram() -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, DIM).prop_filter_map("positive mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

fn metric_cost() -> impl Strategy<Value = CostMatrix> {
    // Positions on a line with random spacing induce a metric.
    prop::collection::vec(0.1_f64..3.0, DIM - 1).prop_map(|gaps| {
        let mut positions = vec![0.0];
        for gap in gaps {
            positions.push(positions.last().unwrap() + gap);
        }
        CostMatrix::from_fn(DIM, |i, j| (positions[i] - positions[j]).abs()).unwrap()
    })
}

fn flows() -> impl Strategy<Value = FlowSample> {
    prop::collection::vec(histogram(), 3..6).prop_map(|sample| {
        let cost = emd_core::ground::linear(DIM).unwrap();
        FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FB optimizers never decrease the tightness of their start; FB-All
    /// additionally ends at a true local optimum (a second run changes
    /// nothing). FB-Mod's paper-faithful stopping rule (Figure 8: stop
    /// when the scan returns to the last-changed dimension) does not
    /// re-examine that dimension itself, so only monotony — not strict
    /// stability — is guaranteed for it.
    #[test]
    fn fb_is_monotone_and_converges(
        flows in flows(),
        cost in metric_cost(),
        k in 2usize..5,
    ) {
        let start = kmedoids_reduction(&cost, k, &mut StdRng::seed_from_u64(1))
            .unwrap()
            .reduction;
        let start_tightness = TightnessEvaluator::new(&flows, &cost).tightness(&start);

        let result_mod = fb_mod(start.clone(), &flows, &cost, FbOptions::default());
        prop_assert!(result_mod.tightness >= start_tightness - 1e-12);
        let again = fb_mod(
            result_mod.reduction.clone(),
            &flows,
            &cost,
            FbOptions::default(),
        );
        prop_assert!(again.tightness >= result_mod.tightness - 1e-12);

        let result_all = fb_all(start, &flows, &cost, FbOptions::default());
        prop_assert!(result_all.tightness >= start_tightness - 1e-12);
        let again = fb_all(
            result_all.reduction.clone(),
            &flows,
            &cost,
            FbOptions::default(),
        );
        prop_assert_eq!(again.reassignments, 0, "FB-All optimum must be stable");
        prop_assert_eq!(again.reduction, result_all.reduction);
    }

    /// The exhaustive oracle dominates both heuristics on tightness.
    #[test]
    fn exhaustive_dominates_heuristics(
        flows in flows(),
        cost in metric_cost(),
        k in 2usize..4,
    ) {
        let (_, best) = optimal_by_tightness(&flows, &cost, k).unwrap();
        let start = CombiningReduction::base(DIM, k).unwrap();
        let result_mod = fb_mod(start.clone(), &flows, &cost, FbOptions::default());
        let result_all = fb_all(start, &flows, &cost, FbOptions::default());
        prop_assert!(best >= result_mod.tightness - 1e-9);
        prop_assert!(best >= result_all.tightness - 1e-9);
    }

    /// k-medoids yields valid reductions at every k, with the boundary
    /// objectives the theory pins down exactly: `TD = 0` at `k = d`
    /// (every dimension its own medoid) and the full spread at `k = 1`.
    /// (Strict monotonicity in k is NOT asserted — greedy local optima
    /// from random initializations can be noisy.)
    #[test]
    fn kmedoids_boundary_objectives(cost in metric_cost()) {
        let mut rng = StdRng::seed_from_u64(7);
        for k in 1..=DIM {
            let result = kmedoids_reduction(&cost, k, &mut rng).unwrap();
            prop_assert_eq!(result.reduction.reduced_dim(), k);
            prop_assert!(result.total_distance >= -1e-12);
            prop_assert_eq!(result.medoids.len(), k);
        }
        let all = kmedoids_reduction(&cost, DIM, &mut rng).unwrap();
        prop_assert!(all.total_distance.abs() < 1e-12);
        // At k = 1 the objective is the column-minimum sum of the cost
        // matrix (best single representative).
        let single = kmedoids_reduction(&cost, 1, &mut rng).unwrap();
        let best_column: f64 = (0..DIM)
            .map(|m| (0..DIM).map(|i| if i == m { 0.0 } else { cost.at(i, m) }).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        prop_assert!(single.total_distance >= best_column - 1e-9);
    }
}

#[test]
fn partition_count_matches_stirling() {
    for (d, k) in [(4, 2), (5, 3), (6, 2), (6, 4)] {
        let mut count = 0u128;
        for_each_partition(d, k, |_| count += 1);
        assert_eq!(count, stirling2(d, k), "partitions of {d} into {k}");
    }
}

#[test]
fn stirling_known_values() {
    assert_eq!(stirling2(0, 0), 1);
    assert_eq!(stirling2(4, 2), 7);
    assert_eq!(stirling2(5, 3), 25);
    assert_eq!(stirling2(10, 5), 42525);
    assert_eq!(stirling2(3, 5), 0);
}

#[test]
fn partitions_are_valid_reductions() {
    for_each_partition(5, 3, |assignment| {
        assert!(CombiningReduction::new(assignment.to_vec(), 3).is_ok());
    });
}

#[test]
fn exhaustive_tightness_dominates_fb_all() {
    // The oracle is a global optimum, so it must match or beat the
    // heuristic.
    let cost = ground::linear(6).unwrap();
    let mut flows_dense = vec![0.0; 36];
    // Concentrated flows between 0<->5 and 1<->2.
    flows_dense[5] = 0.3;
    flows_dense[30] = 0.3;
    flows_dense[8] = 0.2;
    flows_dense[13] = 0.2;
    let flows = FlowSample::from_dense(6, flows_dense).unwrap();
    let (_, best_tightness) = optimal_by_tightness(&flows, &cost, 3).unwrap();
    let heuristic = fb_all(
        CombiningReduction::base(6, 3).unwrap(),
        &flows,
        &cost,
        FbOptions::default(),
    );
    assert!(best_tightness >= heuristic.tightness - 1e-12);
}

#[test]
fn exhaustive_rejects_invalid_k() {
    let flows = FlowSample::from_dense(3, vec![0.0; 9]).unwrap();
    let cost = ground::linear(3).unwrap();
    assert!(optimal_by_tightness(&flows, &cost, 0).is_err());
    assert!(optimal_by_tightness(&flows, &cost, 4).is_err());
}
