//! One chain for every plan: a [`ClusteredIndex`] is stage 1 under the
//! stages [`QueryPlan::chain`] runs, and its cluster keys never exceed
//! Red-EMD, so the running max ranks every candidate exactly as the chain
//! does. Over random databases under a metric ground distance with
//! random symmetric reductions — many of whose min-reduced costs are no
//! metric and must be closed — the clustered plan and `QueryPlan::chain`
//! return the same ids, the same distance bits and the same number of
//! refinements (and of cut ones), for k-NN and for range queries: the
//! index changes how many bounds run, never what KNOP sees.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{ground, Histogram};
use emd_query::{ClusteredIndex, Database, EmdDistance, Executor, Neighbor, QueryPlan, QueryStats};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use proptest::prelude::*;
use std::sync::Arc;

const DIM: usize = 8;

fn histogram() -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, DIM).prop_filter_map("positive mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

/// Any combining reduction with every group non-empty; combining is
/// symmetric, so the clustered index accepts it (closing its cost when
/// the minima break the triangle inequality).
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

/// Ids, distance bits and refinement counts: everything the two plans
/// must agree on.
fn answer(result: (Vec<Neighbor>, QueryStats)) -> (Vec<(usize, u64)>, usize, usize) {
    let (neighbors, stats) = result;
    let pairs = neighbors.iter().map(|n| (n.id, n.distance.to_bits()));
    (pairs.collect(), stats.refinements, stats.refinements_cut)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_clustered_plan_refines_what_the_chain_refines(
        objects in prop::collection::vec(histogram(), 4..40),
        query in histogram(),
        r in reduction(),
        k in 1usize..6,
        epsilon in 0.0_f64..3.0,
        factor in prop::sample::select(vec![0.5_f64, 1.0, 2.0]),
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(objects, cost.clone()).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let bundle =
            PersistedReduction::precompute("", reduced.clone(), database.histograms()).unwrap();
        let chain = Executor::new(QueryPlan::chain(&database, &bundle).unwrap());
        let index = ClusteredIndex::build(&database, reduced, factor).unwrap();
        let refiner = Box::new(EmdDistance::new(&database).unwrap());
        let plan = QueryPlan::sequential(refiner).unwrap().with_source(Box::new(index));
        let clustered = Executor::new(plan.unwrap());

        prop_assert_eq!(
            answer(clustered.knn(&query, k).unwrap()),
            answer(chain.knn(&query, k).unwrap())
        );
        prop_assert_eq!(
            answer(clustered.range(&query, epsilon).unwrap()),
            answer(chain.range(&query, epsilon).unwrap())
        );
    }
}
