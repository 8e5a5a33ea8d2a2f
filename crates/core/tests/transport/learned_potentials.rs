//! The potentials an [`EmdContext`] learns from its query's optimal
//! solves, on random metrics that are not a path — points scattered in
//! the plane under the Euclidean distance — and on the rectangular
//! reduced cost `C′` of two random bin groupings (Definition 4's optimal
//! reduced matrix: the cheapest ground distance between two groups).
//!
//! A KNOP-shaped loop refines every candidate against its current k-th
//! distance through one context, so learned floors and best-floor seeds
//! both run. Each case then holds:
//!
//! * every learned pair dual-feasible: `u_i + v_j ≤ c_ij` within
//!   [`CERT_EPS`] over the query's support and every column;
//! * every floor at most the cold EMD;
//! * near ties: a cutoff at a solved candidate's raw dual value `u·x +
//!   v·y`, and a few ulps either side, is never answered by a floor, and
//!   the loop's ids equal brute force on candidate lists whose duplicates
//!   tie the k-th distance exactly;
//! * after `clear_warm_state` before every evaluation: no floor cut, no
//!   warm attempt, and every distance the bits of `emd()`.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::budget::Budget;
use crate::certify::CERT_EPS;
use crate::context::{emd_in_context_within, EmdContext};
use crate::cost::CostMatrix;
use crate::emd::emd;
use crate::histogram::Histogram;
use crate::simplex::Bounded;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 3;

/// A random histogram over `dim` bins, about a third of them empty.
fn histogram(rng: &mut StdRng, dim: usize) -> Histogram {
    let mut bins: Vec<f64> = (0..dim)
        .map(|_| {
            if rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(0.05..1.0)
            }
        })
        .collect();
    bins[rng.gen_range(0..dim)] += 0.5;
    Histogram::normalized(bins).unwrap()
}

/// Euclidean distances between `dim` random points in the unit square.
fn scattered_metric(rng: &mut StdRng, dim: usize) -> CostMatrix {
    let points: Vec<(f64, f64)> = (0..dim)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    CostMatrix::from_fn(dim, |i, j| {
        let (a, b) = (points[i], points[j]);
        (a.0 - b.0).hypot(a.1 - b.1)
    })
    .unwrap()
}

/// A random grouping of `dim` bins into `groups` non-empty groups.
fn grouping(rng: &mut StdRng, dim: usize, groups: usize) -> Vec<usize> {
    (0..dim)
        .map(|i| {
            if i < groups {
                i
            } else {
                rng.gen_range(0..groups)
            }
        })
        .collect()
}

fn reduce(h: &Histogram, groups: &[usize], reduced_dim: usize) -> Histogram {
    let mut bins = vec![0.0; reduced_dim];
    for (i, mass) in h.nonzero() {
        bins[groups[i]] += mass;
    }
    Histogram::new(bins).unwrap()
}

/// One case: a query, candidates (the first `K + 1` repeated at the end,
/// so some tie the k-th distance exactly) and the cost they run under.
struct Case {
    x: Histogram,
    ys: Vec<Histogram>,
    cost: CostMatrix,
}

fn case(seed: u64, reduced: bool) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = rng.gen_range(4..10usize);
    let cost = scattered_metric(&mut rng, dim);
    let x = histogram(&mut rng, dim);
    let mut ys: Vec<Histogram> = (0..rng.gen_range(K + 2..16))
        .map(|_| histogram(&mut rng, dim))
        .collect();
    ys.extend_from_within(..=K);
    if !reduced {
        return Case { x, ys, cost };
    }
    let (d1, d2) = (rng.gen_range(2..=dim), rng.gen_range(2..=dim));
    let (r1, r2) = (grouping(&mut rng, dim, d1), grouping(&mut rng, dim, d2));
    let mut entries = vec![f64::INFINITY; d1 * d2];
    for i in 0..dim {
        for j in 0..dim {
            let cell = &mut entries[r1[i] * d2 + r2[j]];
            *cell = cell.min(cost.at(i, j));
        }
    }
    Case {
        x: reduce(&x, &r1, d1),
        ys: ys.iter().map(|y| reduce(y, &r2, d2)).collect(),
        cost: CostMatrix::new(d1, d2, entries).unwrap(),
    }
}

/// KNOP's refinement loop over `ys` in order, each candidate against the
/// current k-th distance; the ids of the k nearest, by `(distance, id)`.
fn refine(case: &Case, ctx: &mut EmdContext, cold: bool) -> Vec<usize> {
    let mut nearest: Vec<(f64, usize)> = Vec::new();
    for (id, y) in case.ys.iter().enumerate() {
        let cutoff = if nearest.len() < K {
            f64::INFINITY
        } else {
            nearest[K - 1].0
        };
        if cold {
            ctx.clear_warm_state();
        }
        let solved =
            emd_in_context_within(&case.x, y, &case.cost, &Budget::unlimited(), cutoff, ctx)
                .unwrap();
        match solved {
            Bounded::Optimal(distance) => {
                if cold {
                    assert_eq!(
                        distance.to_bits(),
                        emd(&case.x, y, &case.cost).unwrap().to_bits()
                    );
                }
                nearest.push((distance, id));
                nearest.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                nearest.truncate(K);
            }
            Bounded::Above(bound) => {
                assert!(!cold, "a cold solve has no bound to stop on");
                assert!(bound > cutoff);
            }
        }
    }
    nearest.into_iter().map(|(_, id)| id).collect()
}

fn brute_force(case: &Case) -> Vec<usize> {
    let mut all: Vec<(f64, usize)> = case
        .ys
        .iter()
        .enumerate()
        .map(|(id, y)| (emd(&case.x, y, &case.cost).unwrap(), id))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.into_iter().take(K).map(|(_, id)| id).collect()
}

fn check(case: &Case) {
    let mut ctx = EmdContext::new();
    prop_assert_eq!(refine(case, &mut ctx, false), brute_force(case));
    prop_assert!(!ctx.learned().is_empty());

    let support: Vec<usize> = case.x.nonzero().map(|(i, _)| i).collect();
    for learned in ctx.learned() {
        for (&i, &ui) in support.iter().zip(&learned.u) {
            for (j, &vj) in learned.v.iter().enumerate() {
                let c = case.cost.at(i, j);
                prop_assert!(ui + vj <= c + CERT_EPS, "u{i} {ui} + v{j} {vj} > c {c}");
            }
        }
    }
    for y in &case.ys {
        let floor = ctx.floor(y);
        let cold = emd(&case.x, y, &case.cost).unwrap();
        prop_assert!(floor <= cold, "floor {floor} above the EMD {cold}");
    }

    // A cutoff at the raw dual value `u·x + v·y` of the pair an entry
    // was learned on — its EMD to the last bits — and a few ulps either
    // side: the floor's margin keeps every entry from answering, so the
    // solve runs, and any cut it makes is certified.
    let learned = &ctx.learned()[0];
    let ux: f64 = support
        .iter()
        .zip(&learned.u)
        .map(|(&i, u)| u * case.x.mass(i))
        .sum();
    let (y, raw, exact) = case
        .ys
        .iter()
        .map(|y| {
            let vy: f64 = y.nonzero().map(|(j, mass)| learned.v[j] * mass).sum();
            (y, ux + vy, emd(&case.x, y, &case.cost).unwrap())
        })
        .min_by(|a, b| (a.2 - a.1).abs().total_cmp(&(b.2 - b.1).abs()))
        .unwrap();
    prop_assert!((exact - raw).abs() <= 1e-12, "{raw} vs {exact}");
    for ulps in -4_i64..=4 {
        let cutoff = f64::from_bits(raw.to_bits().wrapping_add_signed(ulps));
        let recording = emd_obs::Recording::start();
        let solved = emd_in_context_within(
            &case.x,
            y,
            &case.cost,
            &Budget::unlimited(),
            cutoff,
            &mut ctx,
        )
        .unwrap();
        let floor_cuts = recording.finish().counter("core.emd.floor_cuts");
        prop_assert_eq!(floor_cuts, 0, "a floor cut at {}", cutoff);
        if let Bounded::Above(bound) = solved {
            prop_assert!(cutoff < bound && bound <= exact);
        }
    }

    let mut cold = EmdContext::new();
    let recording = emd_obs::Recording::start();
    prop_assert_eq!(refine(case, &mut cold, true), brute_force(case));
    prop_assert_eq!(recording.finish().counter("core.emd.floor_cuts"), 0);
    prop_assert_eq!(cold.stats().warm_attempts, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn learned_floors_are_sound_on_scattered_metrics(seed in 0_u64..u64::MAX) {
        check(&case(seed, false));
    }

    #[test]
    fn learned_floors_are_sound_on_reduced_costs(seed in 0_u64..u64::MAX) {
        check(&case(seed, true));
    }
}
