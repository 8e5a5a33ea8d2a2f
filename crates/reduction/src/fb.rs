//! Flow-based (data-dependent) dimensionality reduction — Section 3.4,
//! Figures 8 and 9 of the paper.
//!
//! Starting from an initial reduction matrix (the paper's `Base` or the
//! k-medoids result `KMed`), both algorithms iteratively reassign one
//! original dimension at a time to maximize the expected lower-bound
//! tightness (Equation 12) measured against the sampled average flow
//! matrix `F^S`:
//!
//! * [`fb_mod`] (*FB-Mod*, Figure 8) — first-improvement: scans the
//!   original dimensions round-robin ("modulo") and commits the first
//!   reassignment that improves tightness by more than the relative
//!   threshold; stops after a full pass without changes.
//! * [`fb_all`] (*FB-All*, Figure 9) — best-improvement: evaluates every
//!   (original dimension, reduced dimension) reassignment and commits only
//!   the single best one per iteration; stops when no move improves.
//!
//! Reassignments that would empty a reduced dimension are skipped: they
//! would leave the matrix outside Definition 3 (the pseudo-code in the
//! paper does not spell this case out; see DESIGN.md).

use crate::flow_sample::FlowSample;
use crate::matrix::CombiningReduction;
use crate::tightness::TightnessEvaluator;
use emd_core::CostMatrix;

/// Tunables shared by FB-Mod and FB-All.
#[derive(Debug, Clone, Copy)]
pub struct FbOptions {
    /// The paper's `THRESH`: a reassignment must improve tightness by more
    /// than `current_tightness * threshold` to be taken. Guards against
    /// float-noise oscillation; `0.0` accepts any strict improvement.
    pub threshold: f64,
    /// Safety cap on committed reassignments. The objective strictly
    /// increases over a finite state space, so the algorithms terminate
    /// without it; the cap bounds worst-case preprocessing time.
    pub max_reassignments: usize,
}

impl Default for FbOptions {
    fn default() -> Self {
        FbOptions {
            // float: tolerance — a setting: the least gain a move must bring
            threshold: 1e-9,
            max_reassignments: 100_000,
        }
    }
}

/// Outcome of a flow-based optimization run.
#[derive(Debug, Clone)]
pub struct FbResult {
    /// The optimized reduction matrix.
    pub reduction: CombiningReduction,
    /// Expected tightness (Equation 12) of the final matrix.
    pub tightness: f64,
    /// Number of committed reassignments.
    pub reassignments: usize,
}

/// FB-Mod (Figure 8): round-robin first-improvement local search.
pub fn fb_mod(
    initial: CombiningReduction,
    flows: &FlowSample,
    cost: &CostMatrix,
    options: FbOptions,
) -> FbResult {
    let d = initial.original_dim();
    let d_red = initial.reduced_dim();
    let mut r = initial;
    let mut evaluator = TightnessEvaluator::new(flows, cost);
    let mut current = evaluator.tightness(&r);
    let mut reassignments = 0usize;

    let mut orig_dim = 0usize;
    let mut last_changed = 0usize;
    let mut visited_without_change = 0usize;
    loop {
        let threshold = current * options.threshold;
        let mut changed = false;
        for red_dim in 0..d_red {
            if red_dim == r.target_of(orig_dim) {
                continue;
            }
            let Some(swap_tightness) = evaluator.move_tightness(orig_dim, red_dim) else {
                continue;
            };
            if swap_tightness - current > threshold {
                current = commit(&mut evaluator, &mut r, orig_dim, red_dim, swap_tightness);
                last_changed = orig_dim;
                reassignments += 1;
                changed = true;
                break;
            }
        }
        if changed {
            visited_without_change = 0;
            if reassignments >= options.max_reassignments {
                break;
            }
        } else {
            visited_without_change += 1;
        }
        orig_dim = (orig_dim + 1) % d;
        // Figure 8 stops when the scan returns to the last-changed
        // dimension without further changes; the extra counter also stops
        // a change-free very first pass.
        if (orig_dim == last_changed && visited_without_change > 0) || visited_without_change >= d {
            break;
        }
    }

    FbResult {
        reduction: r,
        tightness: current,
        reassignments,
    }
}

/// FB-All (Figure 9): best-improvement local search.
pub fn fb_all(
    initial: CombiningReduction,
    flows: &FlowSample,
    cost: &CostMatrix,
    options: FbOptions,
) -> FbResult {
    let d = initial.original_dim();
    let d_red = initial.reduced_dim();
    let mut r = initial;
    let mut evaluator = TightnessEvaluator::new(flows, cost);
    let mut current = evaluator.tightness(&r);
    let mut reassignments = 0usize;

    loop {
        let threshold = current * options.threshold;
        let mut best: Option<(usize, usize, f64)> = None;
        for orig_dim in 0..d {
            for red_dim in 0..d_red {
                if red_dim == r.target_of(orig_dim) {
                    continue;
                }
                let Some(swap_tightness) = evaluator.move_tightness(orig_dim, red_dim) else {
                    continue;
                };
                let improves_enough = swap_tightness - current > threshold;
                let beats_best = best.is_none_or(|(_, _, t)| swap_tightness > t);
                if improves_enough && beats_best {
                    best = Some((orig_dim, red_dim, swap_tightness));
                }
            }
        }
        match best {
            Some((orig_dim, red_dim, tightness)) => {
                current = commit(&mut evaluator, &mut r, orig_dim, red_dim, tightness);
                reassignments += 1;
                if reassignments >= options.max_reassignments {
                    break;
                }
            }
            None => break,
        }
    }

    FbResult {
        reduction: r,
        tightness: current,
        reassignments,
    }
}

/// Take the move of `orig_dim` to `red_dim` scored `tightness` and load
/// the moved reduction as the evaluator's new base; returns `tightness`.
/// The full pass over the moved reduction scores it bit for bit the same
/// (`tests/search_parity.rs`).
fn commit(
    evaluator: &mut TightnessEvaluator<'_>,
    r: &mut CombiningReduction,
    orig_dim: usize,
    red_dim: usize,
    tightness: f64,
) -> f64 {
    let committed = r.try_reassign(orig_dim, red_dim);
    debug_assert!(committed);
    let reloaded = evaluator.tightness(r);
    debug_assert_eq!(reloaded.to_bits(), tightness.to_bits());
    tightness
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_sample::FlowSample;
    use emd_core::ground;
    use emd_core::Histogram;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    /// Sample whose mass lives in two well-separated bin groups {0,1} and
    /// {4,5}: a good reduction must keep the two groups apart.
    fn bimodal_sample() -> (Vec<Histogram>, CostMatrix) {
        let sample = vec![
            h(&[0.9, 0.1, 0.0, 0.0, 0.0, 0.0]),
            h(&[0.1, 0.9, 0.0, 0.0, 0.0, 0.0]),
            h(&[0.0, 0.0, 0.0, 0.0, 0.9, 0.1]),
            h(&[0.0, 0.0, 0.0, 0.0, 0.1, 0.9]),
            h(&[0.5, 0.0, 0.0, 0.0, 0.5, 0.0]),
        ];
        (sample, ground::linear(6).unwrap())
    }

    #[test]
    fn fb_mod_improves_over_base() {
        let (sample, cost) = bimodal_sample();
        let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        let base = CombiningReduction::base(6, 2).unwrap();
        let base_tightness = TightnessEvaluator::new(&flows, &cost).tightness(&base);
        let result = fb_mod(base, &flows, &cost, FbOptions::default());
        assert!(result.tightness >= base_tightness - 1e-12);
        // Some reassignment must have happened: Base lumps the separated
        // groups together.
        assert!(result.reassignments > 0);
    }

    #[test]
    fn fb_all_improves_over_base() {
        let (sample, cost) = bimodal_sample();
        let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        let base = CombiningReduction::base(6, 2).unwrap();
        let base_tightness = TightnessEvaluator::new(&flows, &cost).tightness(&base);
        let result = fb_all(base, &flows, &cost, FbOptions::default());
        assert!(result.tightness >= base_tightness - 1e-12);
    }

    #[test]
    fn fb_all_separates_bimodal_groups() {
        let (sample, cost) = bimodal_sample();
        let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        let base = CombiningReduction::base(6, 2).unwrap();
        let result = fb_all(base, &flows, &cost, FbOptions::default());
        let a = result.reduction.target_of(0);
        let b = result.reduction.target_of(4);
        assert_ne!(
            a,
            b,
            "bins 0 and 4 carry the dominant cross-flow and must not merge: {:?}",
            result.reduction.assignment()
        );
    }

    #[test]
    fn stable_at_local_optimum() {
        // Running a second time from the result must change nothing.
        let (sample, cost) = bimodal_sample();
        let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        let base = CombiningReduction::base(6, 3).unwrap();
        let first = fb_all(base, &flows, &cost, FbOptions::default());
        let second = fb_all(first.reduction.clone(), &flows, &cost, FbOptions::default());
        assert_eq!(second.reassignments, 0);
        assert_eq!(first.reduction, second.reduction);
    }

    #[test]
    fn respects_reassignment_cap() {
        let (sample, cost) = bimodal_sample();
        let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        let base = CombiningReduction::base(6, 2).unwrap();
        let result = fb_mod(
            base,
            &flows,
            &cost,
            FbOptions {
                threshold: 0.0,
                max_reassignments: 1,
            },
        );
        assert!(result.reassignments <= 1);
    }

    #[test]
    fn terminates_without_any_improvement() {
        // Identity-like start on uniform flows: nothing to gain.
        let flows = FlowSample::from_dense(4, vec![1.0 / 16.0; 16]).unwrap();
        let cost = ground::linear(4).unwrap();
        let r = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let result = fb_mod(r.clone(), &flows, &cost, FbOptions::default());
        // The chain-with-uniform-flows optimum for d'=2 is the contiguous
        // split, which is where we started.
        assert_eq!(result.reduction, r);
        assert_eq!(result.reassignments, 0);
    }

    #[test]
    fn fb_all_matches_or_beats_fb_mod_tightness() {
        let (sample, cost) = bimodal_sample();
        let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1).unwrap();
        let base = CombiningReduction::base(6, 2).unwrap();
        let result_mod = fb_mod(base.clone(), &flows, &cost, FbOptions::default());
        let result_all = fb_all(base, &flows, &cost, FbOptions::default());
        // Not guaranteed in general (different local optima), but holds on
        // this small, well-separated instance.
        assert!(result_all.tightness >= result_mod.tightness - 1e-9);
    }
}
