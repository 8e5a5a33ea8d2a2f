//! Clustering-based (data-independent) dimensionality reduction
//! (Section 3.3 of the paper).
//!
//! The original dimensions are clustered by k-medoids, with the ground
//! distance `c_ij` between dimensions as the dissimilarity. Medoids —
//! unlike means — only require pairwise dissimilarities, so any EMD
//! instance can be reduced from its cost matrix alone, even when the
//! ground distance function is not explicitly known.
//!
//! The motivation comes from the paper's Theorem 2 (monotony): larger
//! reduced cost entries give tighter bounds, so dimensions that are close
//! in the ground distance should be merged (small intra-cluster "lost"
//! distance, large preserved inter-cluster distance — Figure 5).

use crate::matrix::CombiningReduction;
use crate::ReductionError;
use emd_core::CostMatrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Result of a k-medoids clustering over EMD dimensions.
#[derive(Debug, Clone)]
pub struct KMedoids {
    /// The combining reduction: cluster `i'` = reduced dimension `i'`.
    pub reduction: CombiningReduction,
    /// The representing original dimension of each cluster.
    pub medoids: Vec<usize>,
    /// The clustering objective
    /// `TD = sum_{i'} sum_{i in cluster i'} c_{i, m_{i'}}`.
    pub total_distance: f64,
}

/// Cluster the `d` dimensions of a square cost matrix into `k` groups.
///
/// Starts from `k` random medoids, assigns every dimension to its nearest
/// medoid, then greedily applies the best medoid/non-medoid swap until no
/// swap improves the total distance (the PAM-style procedure sketched in
/// Section 3.3). Deterministic for a fixed RNG.
///
/// # Errors
///
/// Returns [`ReductionError`] when `cost` is not square, `k` is zero, or `k`
/// exceeds the number of dimensions.
pub fn kmedoids_reduction(
    cost: &CostMatrix,
    k: usize,
    rng: &mut impl Rng,
) -> Result<KMedoids, ReductionError> {
    let d = cost.rows();
    debug_assert!(cost.is_square(), "clustering needs a square cost matrix");
    if k == 0 || k > d {
        return Err(ReductionError::InvalidTargetDimension {
            original_dim: d,
            reduced_dim: k,
        });
    }

    // Random initial medoids.
    let mut indices: Vec<usize> = (0..d).collect();
    indices.shuffle(rng);
    let mut medoids: Vec<usize> = indices[..k].to_vec();
    let mut is_medoid = vec![false; d];
    for &m in &medoids {
        is_medoid[m] = true;
    }

    let mut total = total_distance(cost, &medoids);

    // Greedy best-swap improvement.
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for slot in 0..medoids.len() {
            for (candidate, _) in is_medoid.iter().enumerate().filter(|(_, &m)| !m) {
                let mut trial = medoids.clone();
                trial[slot] = candidate;
                let td = total_distance(cost, &trial);
                // float: tolerance — a swap beats the total by more than rounding
                // (moving it moves the medoids, hence every kmed index)
                if td < total - 1e-12 && best.is_none_or(|(_, _, b)| td < b) {
                    best = Some((slot, candidate, td));
                }
            }
        }
        match best {
            Some((slot, candidate, td)) => {
                is_medoid[medoids[slot]] = false;
                is_medoid[candidate] = true;
                medoids[slot] = candidate;
                total = td;
            }
            None => break,
        }
    }

    let assignment = assign(cost, &medoids);
    let reduction = CombiningReduction::new(assignment, k)?;
    Ok(KMedoids {
        reduction,
        medoids,
        total_distance: total,
    })
}

/// [`kmedoids_reduction`] with random restarts: runs the clustering
/// `restarts` times from independent random initializations and keeps the
/// result with the smallest total distance. PAM-style greedy search only
/// finds local optima; a handful of restarts reliably smooths out bad
/// initial medoid draws at linear extra preprocessing cost.
///
/// # Errors
///
/// Returns [`ReductionError`] when `restarts` is zero or any single
/// [`kmedoids_reduction`] run fails.
#[allow(clippy::expect_used)]
pub fn kmedoids_reduction_restarts(
    cost: &CostMatrix,
    k: usize,
    restarts: usize,
    rng: &mut impl Rng,
) -> Result<KMedoids, ReductionError> {
    let restarts = restarts.max(1);
    let mut best: Option<KMedoids> = None;
    for _ in 0..restarts {
        let candidate = kmedoids_reduction(cost, k, rng)?;
        if best
            .as_ref()
            .is_none_or(|b| candidate.total_distance < b.total_distance)
        {
            best = Some(candidate);
        }
    }
    // lint: allow(panic): restarts >= 1 is validated above, so `best` is always Some
    Ok(best.expect("restarts >= 1"))
}

/// Assign every dimension to its nearest medoid (medoids assign to
/// themselves; ties go to the earlier medoid slot for determinism).
#[allow(clippy::needless_range_loop)] // i is a dimension index, not a position
fn assign(cost: &CostMatrix, medoids: &[usize]) -> Vec<usize> {
    let d = cost.rows();
    let mut assignment = vec![0usize; d];
    for i in 0..d {
        let mut best_slot = 0;
        let mut best_cost = f64::INFINITY;
        for (slot, &m) in medoids.iter().enumerate() {
            let c = if i == m { -1.0 } else { cost.at(i, m) };
            if c < best_cost {
                best_cost = c;
                best_slot = slot;
            }
        }
        assignment[i] = best_slot;
    }
    assignment
}

/// The clustering objective `TD` for a medoid set.
fn total_distance(cost: &CostMatrix, medoids: &[usize]) -> f64 {
    let d = cost.rows();
    let mut total = 0.0;
    for i in 0..d {
        let nearest = medoids
            .iter()
            .map(|&m| if i == m { 0.0 } else { cost.at(i, m) })
            .fold(f64::INFINITY, f64::min);
        total += nearest;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clusters_chain_into_contiguous_blocks() {
        // On a 1-D chain, optimal clusters are contiguous runs.
        let cost = ground::linear(8).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let result = kmedoids_reduction(&cost, 2, &mut rng).unwrap();
        assert_eq!(result.reduction.reduced_dim(), 2);
        let assignment = result.reduction.assignment();
        // Contiguity: assignment is monotone along the chain.
        let mut sorted = assignment.to_vec();
        sorted.sort_unstable();
        let mut monotone = assignment.to_vec();
        if monotone.first() > monotone.last() {
            monotone.reverse();
        }
        assert_eq!(monotone, sorted, "chain clusters must be contiguous");
        // TD for 8 dims in 2 balanced clusters of 4 with central medoids:
        // each cluster contributes 1+1+2 = 4.
        assert!((result.total_distance - 8.0).abs() < 1e-9);
    }

    #[test]
    fn k_equals_d_is_identity_like() {
        let cost = ground::linear(4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let result = kmedoids_reduction(&cost, 4, &mut rng).unwrap();
        assert_eq!(result.total_distance, 0.0);
        assert_eq!(result.reduction.reduced_dim(), 4);
        // Every dimension alone in its group.
        assert!(result
            .reduction
            .groups()
            .iter()
            .all(|group| group.len() == 1));
    }

    #[test]
    fn rejects_bad_k() {
        let cost = ground::linear(4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(kmedoids_reduction(&cost, 0, &mut rng).is_err());
        assert!(kmedoids_reduction(&cost, 5, &mut rng).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cost = ground::grid2(4, 3, ground::Metric::Euclidean).unwrap();
        let a = kmedoids_reduction(&cost, 4, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = kmedoids_reduction(&cost, 4, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.reduction, b.reduction);
        assert_eq!(a.medoids, b.medoids);
    }

    #[test]
    fn restarts_never_hurt() {
        let cost = ground::grid2(5, 4, ground::Metric::Euclidean).unwrap();
        let single = kmedoids_reduction(&cost, 5, &mut StdRng::seed_from_u64(2)).unwrap();
        let restarted =
            kmedoids_reduction_restarts(&cost, 5, 8, &mut StdRng::seed_from_u64(2)).unwrap();
        assert!(restarted.total_distance <= single.total_distance + 1e-12);
        assert!(kmedoids_reduction_restarts(&cost, 0, 3, &mut StdRng::seed_from_u64(2)).is_err());
    }

    #[test]
    fn grid_clusters_are_spatially_coherent() {
        // On a 2-D grid with Euclidean ground distance, each cluster's
        // members must be closer to their own medoid than to any other.
        let cost = ground::grid2(4, 4, ground::Metric::Euclidean).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let result = kmedoids_reduction(&cost, 4, &mut rng).unwrap();
        let assignment = result.reduction.assignment();
        for (i, &slot) in assignment.iter().enumerate() {
            let own = result.medoids[slot as usize];
            let own_cost = if i == own { 0.0 } else { cost.at(i, own) };
            for &other in &result.medoids {
                let other_cost = if i == other { 0.0 } else { cost.at(i, other) };
                assert!(own_cost <= other_cost + 1e-9);
            }
        }
    }
}
