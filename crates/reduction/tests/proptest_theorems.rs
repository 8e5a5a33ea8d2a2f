//! Property-based checks of the paper's Theorems 1-3 on random instances.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{emd, ground, CostMatrix, Histogram};
use emd_reduction::{reduce_cost_matrix, CombiningReduction, ReducedEmd};
use proptest::prelude::*;

const DIM: usize = 8;

fn histogram(dim: usize) -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, dim).prop_filter_map("positive total mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

/// A random valid combining reduction of `dim` dimensions: a random
/// permutation seeds `k` groups (guaranteeing surjectivity), remaining
/// dimensions join random groups.
fn reduction(dim: usize) -> impl Strategy<Value = CombiningReduction> {
    (1..=dim).prop_flat_map(move |k| {
        (
            Just(k),
            prop::collection::vec(0..k, dim),
            prop::sample::subsequence((0..dim).collect::<Vec<_>>(), k),
        )
            .prop_map(move |(k, mut assignment, seeds)| {
                for (group, &dimension) in seeds.iter().enumerate() {
                    assignment[dimension] = group;
                }
                CombiningReduction::new(assignment, k).expect("constructed valid")
            })
    })
}

fn random_cost(dim: usize) -> impl Strategy<Value = CostMatrix> {
    prop::collection::vec(0.0_f64..10.0, dim * dim).prop_map(move |mut entries| {
        // Zero diagonal, symmetrized: a plausible ground distance.
        for i in 0..dim {
            entries[i * dim + i] = 0.0;
            for j in 0..i {
                let value = entries[i * dim + j];
                entries[j * dim + i] = value;
            }
        }
        CostMatrix::new(dim, dim, entries).expect("valid cost")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: the reduced EMD with the optimal reduced cost matrix
    /// never exceeds the original EMD — for arbitrary (also differing)
    /// combining reductions.
    #[test]
    fn theorem_one_lower_bound(
        x in histogram(DIM),
        y in histogram(DIM),
        r1 in reduction(DIM),
        r2 in reduction(DIM),
        cost in random_cost(DIM),
    ) {
        let exact = emd(&x, &y, &cost).unwrap();
        let reduced = ReducedEmd::with_asymmetric(&cost, r1, r2).unwrap();
        let bound = reduced.distance(&x, &y).unwrap();
        prop_assert!(
            bound <= exact + 1e-8,
            "reduced {bound} exceeds exact {exact}"
        );
    }

    /// Theorem 2 (monotony): entrywise-larger cost matrices give larger
    /// (or equal) EMDs.
    #[test]
    fn theorem_two_monotony(
        x in histogram(DIM),
        y in histogram(DIM),
        cost in random_cost(DIM),
        scale in 1.0_f64..3.0,
    ) {
        let larger = CostMatrix::new(
            DIM,
            DIM,
            cost.entries().iter().map(|c| c * scale).collect(),
        )
        .unwrap();
        prop_assert!(cost.dominated_by(&larger));
        let small = emd(&x, &y, &cost).unwrap();
        let large = emd(&x, &y, &larger).unwrap();
        prop_assert!(small <= large + 1e-8);
    }

    /// Theorem 3 (optimality): each reduced cost entry is *attained* — the
    /// witness unit vectors of the proof have original EMD equal to the
    /// reduced entry, so any larger entry would overestimate. Verifies the
    /// min-rule is the greatest lower-bounding cost matrix.
    #[test]
    fn theorem_three_witnesses(
        r1 in reduction(DIM),
        r2 in reduction(DIM),
        cost in random_cost(DIM),
    ) {
        let reduced_cost = reduce_cost_matrix(&cost, &r1, &r2).unwrap();
        let groups1 = r1.groups();
        let groups2 = r2.groups();
        for (gi, group_i) in groups1.iter().enumerate() {
            for (gj, group_j) in groups2.iter().enumerate() {
                // The witness pair attaining the minimum.
                let (&i0, &j0) = group_i
                    .iter()
                    .flat_map(|i| group_j.iter().map(move |j| (i, j)))
                    .min_by(|&(i, j), &(a, b)| {
                        cost.at(*i, *j).total_cmp(&cost.at(*a, *b))
                    })
                    .unwrap();
                let x0 = Histogram::unit(DIM, i0).unwrap();
                let y0 = Histogram::unit(DIM, j0).unwrap();
                let exact = emd(&x0, &y0, &cost).unwrap();
                // Unit mass moved once: original EMD = c(i0, j0) when that
                // is the cheapest route... the LP may route cheaper through
                // nothing (direct arc only), so it IS c(i0, j0).
                prop_assert!((exact - cost.at(i0, j0)).abs() < 1e-9);
                // The reduced entry equals that witness distance.
                prop_assert!(
                    (reduced_cost.at(gi, gj) - exact).abs() < 1e-9,
                    "cell ({gi},{gj}) = {} but witness EMD = {exact}",
                    reduced_cost.at(gi, gj)
                );
            }
        }
    }

    /// Reduction preserves total mass (restriction 7) and the reduced
    /// histogram is a valid Definition 1 operand.
    #[test]
    fn reduction_preserves_mass(x in histogram(DIM), r in reduction(DIM)) {
        let reduced = r.reduce(&x).unwrap();
        prop_assert_eq!(reduced.dim(), r.reduced_dim());
        prop_assert!((reduced.total_mass() - 1.0).abs() < 1e-9);
    }

    /// Chained monotony: reducing an already-reduced EMD again still lower
    /// bounds both the intermediate and the original EMD.
    #[test]
    fn two_stage_reduction_chains(
        x in histogram(DIM),
        y in histogram(DIM),
    ) {
        let cost = ground::linear(DIM).unwrap();
        let r_mid = CombiningReduction::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4).unwrap();
        let stage_one = ReducedEmd::new(&cost, r_mid).unwrap();
        let r_final = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let stage_two = ReducedEmd::new(stage_one.reduced_cost(), r_final).unwrap();

        let exact = emd(&x, &y, &cost).unwrap();
        let mid = stage_one.distance(&x, &y).unwrap();
        let rx = stage_one.reduce_first(&x).unwrap();
        let ry = stage_one.reduce_second(&y).unwrap();
        let fin = stage_two.distance(&rx, &ry).unwrap();
        prop_assert!(mid <= exact + 1e-9);
        prop_assert!(fin <= mid + 1e-9);
    }
}
