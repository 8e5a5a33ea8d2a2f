//! The flow-based search scores a move from the loaded base reduction's
//! aggregates, refolding only the rows and columns of the two groups it
//! changes. Two checks hold that path to the full pass of Equation 12:
//!
//! * `every_move_scores_as_the_full_pass` — for every `(o, b)` the move
//!   score equals `tightness` of the moved reduction bit for bit, and a
//!   move that would empty its group is `None`, over tied, asymmetric and
//!   continuous inputs at every `d' <= d <= 24`;
//! * `search_outcomes_are_pinned` — what FB-Mod and FB-All return on two
//!   fixed inputs (assignment, reassignment count, tightness bits) are
//!   literals recorded from the full-pass search, so a scoring change that
//!   moves any choice fails here.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::ground::{self, Metric};
use emd_core::CostMatrix;
use emd_reduction::fb::{fb_all, fb_mod, FbOptions, FbResult};
use emd_reduction::flow_sample::FlowSample;
use emd_reduction::tightness::TightnessEvaluator;
use emd_reduction::CombiningReduction;
use proptest::prelude::*;

/// SplitMix64: a fixed, dependency-free stream for the generated inputs.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw from `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn below(state: &mut u64, n: usize) -> usize {
    (next(state) % n as u64) as usize
}

/// Sparse continuous flows: about one cell in three carries mass.
fn continuous_flows(d: usize, state: &mut u64) -> FlowSample {
    let dense = (0..d * d)
        .map(|_| {
            if below(state, 3) == 0 {
                unit(state)
            } else {
                0.0
            }
        })
        .collect();
    FlowSample::from_dense(d, dense).unwrap()
}

/// The three input families the parity check covers.
#[derive(Debug, Clone, Copy)]
enum Inputs {
    /// Integer costs in `0..4` (with `-0.0` beside `0.0`), independent
    /// per cell, and flows from a few values including `0.0`: many ties
    /// in every minimum and sum.
    Tied,
    /// Independent continuous costs per cell: `c_ij != c_ji`.
    Asymmetric,
    /// A metric from random positions on a line, continuous flows.
    Continuous,
}

fn inputs(kind: Inputs, d: usize, state: &mut u64) -> (FlowSample, CostMatrix) {
    match kind {
        Inputs::Tied => {
            const COSTS: [f64; 5] = [0.0, -0.0, 1.0, 2.0, 3.0];
            const FLOWS: [f64; 5] = [0.0, 0.0, 0.25, 0.5, 1.0];
            let costs: Vec<f64> = (0..d * d).map(|_| COSTS[below(state, 5)]).collect();
            let flows = (0..d * d).map(|_| FLOWS[below(state, 5)]).collect();
            (
                FlowSample::from_dense(d, flows).unwrap(),
                CostMatrix::new(d, d, costs).unwrap(),
            )
        }
        Inputs::Asymmetric => {
            let costs: Vec<f64> = (0..d * d).map(|_| 3.0 * unit(state)).collect();
            (
                continuous_flows(d, state),
                CostMatrix::new(d, d, costs).unwrap(),
            )
        }
        Inputs::Continuous => {
            let positions: Vec<f64> = (0..d).map(|_| 10.0 * unit(state)).collect();
            let cost = CostMatrix::from_fn(d, |i, j| (positions[i] - positions[j]).abs()).unwrap();
            (continuous_flows(d, state), cost)
        }
    }
}

/// A random valid reduction to `d_red` groups: a random permutation's
/// first `d_red` dimensions open the groups, the rest join any group.
fn reduction(d: usize, d_red: usize, state: &mut u64) -> CombiningReduction {
    let mut order: Vec<usize> = (0..d).collect();
    for k in (1..d).rev() {
        order.swap(k, below(state, k + 1));
    }
    let mut assignment = vec![0; d];
    for (rank, &original) in order.iter().enumerate() {
        assignment[original] = if rank < d_red {
            rank
        } else {
            below(state, d_red)
        };
    }
    CombiningReduction::new(assignment, d_red).unwrap()
}

/// Every move of a random reduction at every `d_red` in `1..=d`, scored
/// against the full pass over the moved reduction.
fn check_every_move(kind: Inputs, d: usize, seed: u64) {
    let mut state = seed;
    let (flows, cost) = inputs(kind, d, &mut state);
    let mut oracle = TightnessEvaluator::new(&flows, &cost);
    let mut evaluator = TightnessEvaluator::new(&flows, &cost);
    for d_red in 1..=d {
        let r = reduction(d, d_red, &mut state);
        let base = evaluator.tightness(&r);
        let groups = r.groups();
        for original in 0..d {
            let source = r.target_of(original);
            for target in 0..d_red {
                let score = evaluator.move_tightness(original, target);
                if target == source {
                    assert_eq!(score.map(f64::to_bits), Some(base.to_bits()));
                    continue;
                }
                if groups[source].len() == 1 {
                    assert_eq!(
                        score, None,
                        "{kind:?} d={d} d'={d_red} ({original}, {target})"
                    );
                    continue;
                }
                let mut moved = r
                    .assignment()
                    .iter()
                    .map(|&t| t as usize)
                    .collect::<Vec<_>>();
                moved[original] = target;
                let moved = CombiningReduction::new(moved, d_red).unwrap();
                let expected = oracle.tightness(&moved);
                assert_eq!(
                    score.map(f64::to_bits),
                    Some(expected.to_bits()),
                    "{kind:?} d={d} d'={d_red} ({original} -> {target}): {score:?} vs {expected}"
                );
            }
        }
    }
}

#[test]
fn every_move_scores_as_the_full_pass() {
    for kind in [Inputs::Tied, Inputs::Asymmetric, Inputs::Continuous] {
        for d in 1..=24 {
            check_every_move(kind, d, 0x51 + d as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sweep above at random seeds and dimensionalities.
    #[test]
    fn every_move_scores_as_the_full_pass_at_random_seeds(
        d in 1usize..25,
        kind in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let kind = [Inputs::Tied, Inputs::Asymmetric, Inputs::Continuous][kind];
        check_every_move(kind, d, seed);
    }
}

/// A fixed input of dimensionality `width * height`: the Euclidean grid
/// cost and sparse continuous flows from a fixed seed.
fn pinned_inputs(width: usize, height: usize) -> (FlowSample, CostMatrix) {
    let d = width * height;
    let mut state = 0x5EED ^ d as u64;
    let cost = ground::grid2(width, height, Metric::Euclidean).unwrap();
    (continuous_flows(d, &mut state), cost)
}

fn outcome(result: &FbResult) -> (Vec<u32>, usize, u64) {
    (
        result.reduction.assignment().to_vec(),
        result.reassignments,
        result.tightness.to_bits(),
    )
}

/// `(assignment, reassignments, tightness bits)` of one pinned search.
type Pinned = (&'static [u32], usize, u64);

fn assert_pinned(name: &str, result: &FbResult, (assignment, reassignments, bits): Pinned) {
    assert_eq!(
        outcome(result),
        (assignment.to_vec(), reassignments, bits),
        "{name}"
    );
}

// Recorded from the full-pass search: one `tightness` call per move.
const FB_ALL_48_12: Pinned = (
    &[
        0, 1, 10, 3, 4, 5, 6, 7, 0, 1, 10, 3, 4, 5, 6, 7, 0, 1, 2, 3, 11, 5, 6, 7, 0, 9, 2, 3, 11,
        5, 6, 7, 8, 9, 2, 3, 11, 5, 6, 7, 8, 9, 2, 3, 11, 5, 6, 7,
    ],
    50,
    0x408f06eda94b61d3,
);
const FB_MOD_48_12: Pinned = (
    &[
        3, 9, 0, 10, 4, 2, 5, 7, 3, 9, 0, 10, 4, 2, 5, 7, 3, 9, 1, 10, 6, 2, 5, 7, 3, 9, 1, 10, 6,
        2, 5, 7, 3, 9, 8, 10, 6, 2, 11, 7, 3, 9, 8, 10, 6, 2, 11, 7,
    ],
    131,
    0x408ee160a6222ccb,
);
const FB_ALL_32_8: Pinned = (
    &[
        0, 1, 2, 3, 4, 5, 6, 6, 0, 1, 2, 3, 7, 5, 6, 6, 0, 1, 2, 3, 4, 5, 6, 6, 0, 1, 2, 3, 7, 5,
        6, 6,
    ],
    27,
    0x407affc6058ae620,
);
const FB_MOD_32_8: Pinned = (
    &[
        1, 1, 3, 2, 7, 4, 6, 5, 1, 1, 3, 2, 7, 4, 6, 5, 1, 1, 3, 0, 7, 4, 6, 5, 1, 1, 3, 0, 7, 4,
        6, 5,
    ],
    65,
    0x407aabbcf5200b4e,
);

#[test]
fn search_outcomes_are_pinned() {
    for (width, height, d_red, pinned_all, pinned_mod) in [
        (8, 6, 12, FB_ALL_48_12, FB_MOD_48_12),
        (8, 4, 8, FB_ALL_32_8, FB_MOD_32_8),
    ] {
        let (flows, cost) = pinned_inputs(width, height);
        let start = CombiningReduction::base(width * height, d_red).unwrap();
        let all = fb_all(start.clone(), &flows, &cost, FbOptions::default());
        assert_pinned(&format!("fb_all d'={d_red}"), &all, pinned_all);
        let modulo = fb_mod(start, &flows, &cost, FbOptions::default());
        assert_pinned(&format!("fb_mod d'={d_red}"), &modulo, pinned_mod);
    }
}
