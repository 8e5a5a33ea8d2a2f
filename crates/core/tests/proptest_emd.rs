//! Property-based tests for the exact EMD and its classic lower bounds.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::ground::{self, Metric};
use emd_core::lower_bounds::{AnchorBound, LbIm};
use emd_core::{
    emd, emd_in_context, emd_in_context_within, emd_with_flows, Bounded, Budget, CostMatrix,
    EmdContext, Histogram, MASS_EPS,
};
use proptest::prelude::*;

/// Closed-form EMD for the 1-D chain ground distance `c_ij = |i - j|`:
/// the L1 distance between the cumulative distributions, an oracle that
/// shares nothing with the LP.
fn emd_1d_manhattan(x: &Histogram, y: &Histogram) -> f64 {
    let mut cumulative = 0.0;
    let mut total = 0.0;
    for (a, b) in x.bins().iter().zip(y.bins().iter()) {
        cumulative += a - b;
        total += cumulative.abs();
    }
    total
}

fn histogram(dim: usize) -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, dim).prop_filter_map("positive total mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

/// A sparse histogram: most bins zero, as in real multimedia features.
fn sparse_histogram(dim: usize) -> impl Strategy<Value = Histogram> {
    prop::collection::vec(prop::option::weighted(0.3, 0.01_f64..1.0), dim).prop_filter_map(
        "positive total mass",
        |raw| {
            let bins: Vec<f64> = raw.into_iter().map(|x| x.unwrap_or(0.0)).collect();
            let total: f64 = bins.iter().sum();
            (total > 1e-6)
                .then(|| Histogram::new(bins.iter().map(|x| x / total).collect()).ok())
                .flatten()
        },
    )
}

/// `h` with its largest bin moved so that its total sits `sign ·
/// MASS_EPS` off 1 — a hair inside the tolerance `Histogram::new` checks.
fn at_mass_tolerance(h: &Histogram, sign: f64) -> Histogram {
    let mut bins = h.bins().to_vec();
    let largest = (0..bins.len())
        .max_by(|&a, &b| bins[a].total_cmp(&bins[b]))
        .unwrap();
    let drift = 1.0 - h.total_mass();
    bins[largest] += sign.mul_add(MASS_EPS * (1.0 - 1e-6), drift);
    Histogram::new(bins).unwrap()
}

/// `h` reduced onto `groups` contiguous bins: each reduced bin holds the
/// summed mass of its run of original bins, as a combining reduction's
/// `x · R` does.
fn reduce_contiguous(h: &Histogram, groups: usize) -> Histogram {
    let mut bins = vec![0.0; groups];
    for (i, &mass) in h.bins().iter().enumerate() {
        bins[i * groups / h.dim()] += mass;
    }
    Histogram::new(bins).unwrap()
}

/// The reduced cost `C'` of two contiguous reductions of the 1-D chain
/// `|i - j|` onto `r1` and `r2` bins: the cheapest pair of original bins
/// between each two groups, a rectangular matrix when `r1 != r2`.
fn reduced_chain_cost(dim: usize, r1: usize, r2: usize) -> CostMatrix {
    let mut entries = vec![f64::INFINITY; r1 * r2];
    for i in 0..dim {
        for j in 0..dim {
            let cell = &mut entries[(i * r1 / dim) * r2 + j * r2 / dim];
            *cell = cell.min((i as f64 - j as f64).abs());
        }
    }
    CostMatrix::new(r1, r2, entries).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// LP solution equals the closed-form CDF distance on 1-D chains.
    #[test]
    fn matches_1d_closed_form(x in histogram(12), y in histogram(12)) {
        let c = ground::linear(12).unwrap();
        let lp = emd(&x, &y, &c).unwrap();
        let oracle = emd_1d_manhattan(&x, &y);
        prop_assert!((lp - oracle).abs() < 1e-9, "lp {lp} != oracle {oracle}");
    }

    /// Operands whose totals sit at `1 ± MASS_EPS`, in either direction
    /// each: every pair `Histogram::new` accepts, the EMD accepts too, and
    /// its answer differs from the closed form only by the imbalance it
    /// had to move (at most `2 · MASS_EPS`, at most 12 bins far). The
    /// same operands reduced onto `r1 != r2` bins under the rectangular
    /// `C'` — the other producer of solver operands — solve too, and
    /// their Red-EMD stays below the EMD by the same margin.
    #[test]
    fn operands_at_the_mass_tolerance_solve(
        x in histogram(12),
        y in histogram(12),
        x_sign in prop::sample::select(vec![1.0, -1.0]),
        y_sign in prop::sample::select(vec![1.0, -1.0]),
        (r1, r2) in prop::sample::select(vec![(2, 3), (3, 5), (4, 6), (5, 2), (6, 4)]),
    ) {
        let (x, y) = (at_mass_tolerance(&x, x_sign), at_mass_tolerance(&y, y_sign));
        let c = ground::linear(12).unwrap();
        let lp = emd(&x, &y, &c).unwrap();
        let oracle = emd_1d_manhattan(&x, &y);
        let margin = (2.0 * MASS_EPS).mul_add(12.0, 1e-9);
        prop_assert!((lp - oracle).abs() <= margin, "lp {lp} != oracle {oracle}");

        let (xr, yr) = (reduce_contiguous(&x, r1), reduce_contiguous(&y, r2));
        let reduced = reduced_chain_cost(12, r1, r2);
        let red = emd_in_context_within(
            &xr, &yr, &reduced, &Budget::unlimited(), f64::INFINITY, &mut EmdContext::new(),
        )
        .unwrap();
        prop_assert!(
            matches!(red, Bounded::Optimal(distance) if distance <= lp + margin),
            "Red-EMD {red:?} > EMD {lp}"
        );
    }

    /// Same, on sparse histograms (exercises the zero-bin stripping).
    #[test]
    fn matches_1d_closed_form_sparse(x in sparse_histogram(24), y in sparse_histogram(24)) {
        let c = ground::linear(24).unwrap();
        let lp = emd(&x, &y, &c).unwrap();
        let oracle = emd_1d_manhattan(&x, &y);
        prop_assert!((lp - oracle).abs() < 1e-9);
    }

    /// Metric axioms under a metric ground distance: identity, symmetry
    /// and the triangle inequality.
    #[test]
    fn metric_axioms(
        x in histogram(9),
        y in histogram(9),
        z in histogram(9),
    ) {
        let c = ground::grid2(3, 3, Metric::Euclidean).unwrap();
        let d_xy = emd(&x, &y, &c).unwrap();
        let d_yx = emd(&y, &x, &c).unwrap();
        let d_xz = emd(&x, &z, &c).unwrap();
        let d_zy = emd(&z, &y, &c).unwrap();
        prop_assert!(emd(&x, &x, &c).unwrap().abs() < 1e-9);
        prop_assert!((d_xy - d_yx).abs() < 1e-9, "symmetry");
        prop_assert!(d_xy <= d_xz + d_zy + 1e-9, "triangle inequality");
        prop_assert!(d_xy >= -1e-12, "non-negativity");
    }

    /// The reported flows are feasible and reproduce the objective.
    #[test]
    fn flows_reconstruct_distance(x in sparse_histogram(16), y in sparse_histogram(16)) {
        let c = ground::grid2(4, 4, Metric::Manhattan).unwrap();
        let report = emd_with_flows(&x, &y, &c).unwrap();
        let mut row_sums = [0.0; 16];
        let mut col_sums = [0.0; 16];
        let mut objective = 0.0;
        for &(i, j, f) in &report.flows {
            prop_assert!(f > 0.0);
            row_sums[i] += f;
            col_sums[j] += f;
            objective += f * c.at(i, j);
        }
        for i in 0..16 {
            prop_assert!((row_sums[i] - x.mass(i)).abs() < 1e-8);
            prop_assert!((col_sums[i] - y.mass(i)).abs() < 1e-8);
        }
        prop_assert!((objective - report.distance).abs() < 1e-8);
    }

    /// Both library lower bounds under-estimate the exact EMD (the
    /// centroid and scaled-L1 bounds are emd-bench's, tested there).
    #[test]
    fn classic_bounds_are_lower_bounds(x in histogram(12), y in histogram(12)) {
        let c = ground::grid2(4, 3, Metric::Euclidean).unwrap();
        let exact = emd(&x, &y, &c).unwrap();

        let im = LbIm::new(c.clone());
        prop_assert!(im.bound(&x, &y).unwrap() <= exact + 1e-9);

        let anchor = AnchorBound::with_spread_anchors(&c, 4).unwrap();
        prop_assert!(anchor.bound(&x, &y).unwrap() <= exact + 1e-9);
    }

    /// EMD monotony in the cost matrix (paper Theorem 2, forward
    /// direction): scaling costs up cannot decrease the distance.
    #[test]
    fn monotone_in_costs(x in histogram(8), y in histogram(8), bump in 0.0_f64..3.0) {
        let small = ground::linear(8).unwrap();
        let large = CostMatrix::new(
            8,
            8,
            small
                .entries()
                .iter()
                .enumerate()
                .map(|(k, &c)| if k / 8 == k % 8 { c } else { c + bump })
                .collect(),
        )
        .unwrap();
        let d_small = emd(&x, &y, &small).unwrap();
        let d_large = emd(&x, &y, &large).unwrap();
        prop_assert!(d_small <= d_large + 1e-9);
    }

    /// Saturating the ground distance can only shrink the EMD.
    #[test]
    fn saturation_shrinks(x in histogram(10), y in histogram(10), tau in 0.5_f64..5.0) {
        let c = ground::linear(10).unwrap();
        let s = ground::saturated(&c, tau).unwrap();
        let full = emd(&x, &y, &c).unwrap();
        let capped = emd(&x, &y, &s).unwrap();
        prop_assert!(capped <= full + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LB_IM stays below the exact EMD on random sparse histograms over
    /// a 2-D grid.
    #[test]
    fn sandwich_bounds(x in sparse_histogram(16), y in sparse_histogram(16)) {
        let c = ground::grid2(4, 4, Metric::Euclidean).unwrap();
        let exact = emd(&x, &y, &c).unwrap();
        let im = LbIm::new(c);
        let lower = im.bound(&x, &y).unwrap();
        prop_assert!(lower <= exact + 1e-9);
    }
}

/// Run `solve` under a recording scope; returns its value with the
/// primal pivots and simplex calls it recorded.
fn recorded<T>(solve: impl FnOnce() -> T) -> (T, u64, u64) {
    let recording = emd_obs::Recording::start();
    let value = solve();
    let registry = recording.finish();
    (
        value,
        registry.counter("transport.simplex.pivots"),
        registry.counter("transport.solve.calls"),
    )
}

/// Every cold way to ask for `EMD(x, y)` is one body: the sugar entries,
/// a fresh context, and a context warmed on `(x, warm_up)` and then
/// cleared return the same bits from the same pivots, and the reported
/// flows certify.
fn assert_one_body(x: &Histogram, y: &Histogram, warm_up: &Histogram, cost: &CostMatrix) {
    let unlimited = Budget::unlimited();
    let (plain, pivots, calls) = recorded(|| emd(x, y, cost).unwrap());
    let (report, report_pivots, _) = recorded(|| emd_with_flows(x, y, cost).unwrap());
    let (fresh, fresh_pivots, _) =
        recorded(|| emd_in_context(x, y, cost, &unlimited, &mut EmdContext::new()).unwrap());
    let mut ctx = EmdContext::new();
    let warming = emd_obs::Recording::start();
    emd_in_context(x, warm_up, cost, &unlimited, &mut ctx).unwrap();
    ctx.clear_warm_state();
    let cleared_recording = emd_obs::Recording::start();
    let cleared = emd_in_context(x, y, cost, &unlimited, &mut ctx).unwrap();
    let cleared_registry = cleared_recording.finish();
    let cleared_pivots = cleared_registry.counter("transport.simplex.pivots");
    let warm_attempts = warming.finish().counter("transport.warm.attempts")
        + cleared_registry.counter("transport.warm.attempts");

    prop_assert_eq!(calls, 1);
    prop_assert_eq!(report.distance.to_bits(), plain.to_bits());
    prop_assert_eq!(fresh.to_bits(), plain.to_bits());
    prop_assert_eq!(cleared.to_bits(), plain.to_bits());
    prop_assert_eq!(report_pivots, pivots);
    prop_assert_eq!(fresh_pivots, pivots);
    prop_assert_eq!(cleared_pivots, pivots);
    prop_assert_eq!(warm_attempts, 0);
    prop_assert!(emd_core::certify::certify_report(x, y, cost, &report, 1e-9).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One body, square operands (sparse, so stripping and remapping run).
    #[test]
    fn one_body_square(
        x in sparse_histogram(16),
        y in sparse_histogram(16),
        warm_up in sparse_histogram(16),
    ) {
        let c = ground::grid2(4, 4, Metric::Euclidean).unwrap();
        // Equal operands take the identity shortcut (next property).
        if x != y {
            assert_one_body(&x, &y, &warm_up, &c);
        }
    }

    /// One body, rectangular operands under an arbitrary cost matrix.
    #[test]
    fn one_body_rectangular(
        x in sparse_histogram(9),
        y in histogram(5),
        warm_up in histogram(5),
        entries in prop::collection::vec(0.0_f64..5.0, 45),
    ) {
        let c = CostMatrix::new(9, 5, entries).unwrap();
        assert_one_body(&x, &y, &warm_up, &c);
    }

    /// The identity shortcut answers without building an LP and reports
    /// the identity flow.
    #[test]
    fn identity_shortcut_reports_the_identity_flow(x in sparse_histogram(16)) {
        let c = ground::grid2(4, 4, Metric::Manhattan).unwrap();
        let (report, _, calls) = recorded(|| emd_with_flows(&x, &x, &c).unwrap());
        prop_assert_eq!(calls, 0);
        prop_assert_eq!(report.distance.to_bits(), 0.0_f64.to_bits());
        let identity: Vec<_> = x.nonzero().map(|(i, mass)| (i, i, mass)).collect();
        prop_assert_eq!(report.flows, identity);
    }
}
