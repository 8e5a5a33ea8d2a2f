//! Test oracle: globally optimal reductions by exhaustive enumeration.
//!
//! Section 3.2.2 of the paper notes that the truly optimal reduction
//! requires an infeasibly large search. For *tiny* dimensionalities the
//! search over every partition is still tractable, which makes it an
//! oracle for the heuristics of Sections 3.3/3.4: no FB-Mod or FB-All
//! result may beat [`optimal_by_tightness`] on expected tightness
//! (Equation 12). `proptest_heuristics` pulls it in with `mod support;`;
//! no shipped path runs it.

use emd_core::CostMatrix;
use emd_reduction::flow_sample::FlowSample;
use emd_reduction::tightness::TightnessEvaluator;
use emd_reduction::{CombiningReduction, ReductionError};

/// Iterate over all partitions of `0..d` into exactly `k` non-empty,
/// unlabeled groups (restricted growth strings), invoking `visit` with the
/// assignment vector of each.
pub fn for_each_partition(d: usize, k: usize, mut visit: impl FnMut(&[usize])) {
    // Restricted growth string a[0..d]: a[i] <= max(a[0..i]) + 1, with the
    // extra constraint that exactly k distinct values appear.
    fn recurse(
        assignment: &mut Vec<usize>,
        used: usize,
        d: usize,
        k: usize,
        visit: &mut impl FnMut(&[usize]),
    ) {
        let position = assignment.len();
        if position == d {
            if used == k {
                visit(assignment);
            }
            return;
        }
        // After consuming this slot on an existing group, the remaining
        // slots must still be able to open the missing groups.
        let remaining = d - position;
        for value in 0..used.min(k) {
            if used + remaining > k {
                assignment.push(value);
                recurse(assignment, used, d, k, visit);
                assignment.pop();
            }
        }
        if used < k {
            assignment.push(used);
            recurse(assignment, used + 1, d, k, visit);
            assignment.pop();
        }
    }
    let mut assignment = Vec::with_capacity(d);
    recurse(&mut assignment, 0, d, k, &mut visit);
}

/// The reduction to `k` dimensions maximizing expected tightness
/// (Equation 12). Exponential in `d` — intended for `d <= 12`.
///
/// # Errors
///
/// Returns [`ReductionError`] when `k` is zero or exceeds the flow sample's
/// dimensionality, when shapes disagree, or when a candidate reduction fails
/// to build.
pub fn optimal_by_tightness(
    flows: &FlowSample,
    cost: &CostMatrix,
    k: usize,
) -> Result<(CombiningReduction, f64), ReductionError> {
    let d = flows.dim();
    if k == 0 || k > d {
        return Err(ReductionError::InvalidTargetDimension {
            original_dim: d,
            reduced_dim: k,
        });
    }
    let mut evaluator = TightnessEvaluator::new(flows, cost);
    let mut best: Option<(CombiningReduction, f64)> = None;
    let mut error = None;
    for_each_partition(d, k, |assignment| {
        if error.is_some() {
            return;
        }
        match CombiningReduction::new(assignment.to_vec(), k) {
            Ok(r) => {
                let tightness = evaluator.tightness(&r);
                if best.as_ref().is_none_or(|(_, t)| tightness > *t) {
                    best = Some((r, tightness));
                }
            }
            Err(e) => error = Some(e),
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    best.ok_or(ReductionError::InvalidTargetDimension {
        original_dim: d,
        reduced_dim: k,
    })
}

/// Number of partitions of `d` elements into exactly `k` non-empty groups
/// (Stirling numbers of the second kind): how many reductions
/// [`for_each_partition`] visits.
pub fn stirling2(d: usize, k: usize) -> u128 {
    if k == 0 {
        return u128::from(d == 0);
    }
    if k > d {
        return 0;
    }
    let mut row = vec![0u128; k + 1];
    row[0] = 1; // S(0, 0)
    for n in 1..=d {
        for j in (1..=k.min(n)).rev() {
            row[j] = j as u128 * row[j] + row[j - 1];
        }
        row[0] = 0;
    }
    row[k]
}
