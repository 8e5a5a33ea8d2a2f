//! PCA-guided combining reduction (ablation).
//!
//! Section 3.1 of the paper reports that real-valued reductions such as
//! PCA "resulted in very poor retrieval efficiency due to the concessions
//! that had to be made for the reduced cost matrix in order to guarantee
//! the lower-bounding property" — real-valued mixing forces the worst-case
//! reduced costs toward zero. The paper gives no construction, so this
//! module implements the closest *sound* analogue for experiment A3:
//! dimensions are clustered by the similarity of their principal-component
//! loadings (a purely data-driven, geometry-blind criterion), and the
//! resulting *combining* reduction is used with the optimal min cost
//! matrix of Definition 5. This isolates the paper's question — does
//! ignoring the ground distance hurt? — while staying a complete filter.

use emd_core::Histogram;
use emd_reduction::{CombiningReduction, ReductionError};
use rand::seq::SliceRandom;
use rand::Rng;

/// Principal components of a histogram sample.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Eigenvectors, one `Vec<f64>` of length `d` per component,
    /// descending eigenvalue order.
    pub components: Vec<Vec<f64>>,
    /// Matching eigenvalues.
    pub eigenvalues: Vec<f64>,
}

/// Compute the top `m` principal components of the sample covariance by
/// power iteration with deflation. `O(m * iters * d^2)`.
///
/// # Errors
///
/// Returns [`ReductionError`] when the sample is empty, `m` is zero, or `m`
/// exceeds the sample dimensionality.
pub fn pca(sample: &[Histogram], m: usize) -> Result<Pca, ReductionError> {
    if sample.len() < 2 {
        return Err(ReductionError::SampleTooSmall(sample.len()));
    }
    let d = sample[0].dim(); // bounds: sample.len() >= 2 was checked above
    for h in sample {
        if h.dim() != d {
            return Err(ReductionError::DimensionMismatch {
                expected: d,
                got: h.dim(),
            });
        }
    }
    let n = sample.len() as f64;
    let mut mean = vec![0.0; d];
    for h in sample {
        for (i, &x) in h.bins().iter().enumerate() {
            mean[i] += x / n; // bounds: every histogram was checked to have dim d = mean.len()
        }
    }
    let mut covariance = vec![0.0; d * d];
    for h in sample {
        for i in 0..d {
            let di = h.mass(i) - mean[i]; // bounds: i < d sizes mean and the covariance rows
            if di == 0.0 {
                continue;
            }
            for j in 0..d {
                covariance[i * d + j] += di * (h.mass(j) - mean[j]) / n; // bounds: i, j < d index the d*d covariance buffer
            }
        }
    }

    let m = m.min(d);
    let mut components = Vec::with_capacity(m);
    let mut eigenvalues = Vec::with_capacity(m);
    let mut work = covariance;
    for component_index in 0..m {
        let (vector, value) = dominant_eigenpair(&work, d, component_index);
        if value <= 1e-12 {
            break; // Remaining variance is numerically zero.
        }
        // Deflate: work -= value * v v^T.
        for i in 0..d {
            for j in 0..d {
                work[i * d + j] -= value * vector[i] * vector[j]; // bounds: i, j < d index the d*d work buffer
            }
        }
        components.push(vector);
        eigenvalues.push(value);
    }
    Ok(Pca {
        components,
        eigenvalues,
    })
}

/// Power iteration for the dominant eigenpair of a symmetric PSD matrix.
/// The seed vector is deterministic but varied per component so deflated
/// matrices do not start orthogonal to their dominant direction.
fn dominant_eigenpair(matrix: &[f64], d: usize, seed: usize) -> (Vec<f64>, f64) {
    let mut v: Vec<f64> = (0..d)
        .map(|i| 1.0 + ((i * 31 + seed * 17) % 97) as f64 / 97.0)
        .collect();
    normalize(&mut v);
    let mut value = 0.0;
    let mut product = vec![0.0; d];
    for _ in 0..200 {
        for i in 0..d {
            product[i] = matrix[i * d..(i + 1) * d] // bounds: i < d and the matrix holds d*d entries
                .iter()
                .zip(v.iter())
                .map(|(m, x)| m * x)
                .sum();
        }
        let norm = normalize(&mut product);
        std::mem::swap(&mut v, &mut product);
        if (norm - value).abs() <= 1e-14 * norm.max(1.0) {
            value = norm;
            break;
        }
        value = norm;
    }
    (v, value)
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
    norm
}

/// Cluster the original dimensions by their eigenvalue-scaled PCA loadings
/// (k-means in component space) and return the induced combining
/// reduction.
///
/// # Errors
///
/// Returns [`ReductionError`] when `k` or `components` is out of range for
/// the sample, or when the underlying [`pca`] run fails.
pub fn pca_guided_reduction(
    sample: &[Histogram],
    k: usize,
    components: usize,
    rng: &mut impl Rng,
) -> Result<CombiningReduction, ReductionError> {
    if sample.is_empty() {
        return Err(ReductionError::SampleTooSmall(0));
    }
    let d = sample[0].dim(); // bounds: sample.is_empty() was rejected above
    if k == 0 || k > d {
        return Err(ReductionError::InvalidTargetDimension {
            original_dim: d,
            reduced_dim: k,
        });
    }
    let decomposition = pca(sample, components)?;
    let m = decomposition.components.len();
    // Loading vector of each original dimension, scaled by sqrt(lambda) so
    // strong components dominate.
    let loadings: Vec<Vec<f64>> = (0..d)
        .map(|i| {
            (0..m)
                .map(|c| decomposition.components[c][i] * decomposition.eigenvalues[c].sqrt()) // bounds: c < m components, i < d loadings per component
                .collect()
        })
        .collect();
    let assignment = kmeans(&loadings, k, rng);
    CombiningReduction::new(assignment, k)
}

/// Plain k-means with empty-cluster repair (farthest point reseeding).
fn kmeans(points: &[Vec<f64>], k: usize, rng: &mut impl Rng) -> Vec<usize> {
    let n = points.len();
    let dim = points.first().map_or(0, Vec::len);
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(rng);
    let mut centers: Vec<Vec<f64>> = indices[..k].iter().map(|&i| points[i].clone()).collect(); // bounds: kmeans callers guarantee k <= points.len() = n
    let mut assignment = vec![0usize; n];

    for _ in 0..100 {
        let mut changed = false;
        for (i, point) in points.iter().enumerate() {
            let nearest = centers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    squared_distance(point, a).total_cmp(&squared_distance(point, b))
                })
                .map(|(c, _)| c)
                .unwrap_or(0);
            // bounds: i iterates 0..rows = assignment.len()
            if assignment[i] != nearest {
                // bounds: i < n = assignment.len(); nearest < k centers
                assignment[i] = nearest;
                changed = true;
            }
        }
        // Recompute centers; repair empty clusters with the point farthest
        // from its center.
        let mut counts = vec![0usize; k];
        let mut sums = vec![vec![0.0; dim]; k];
        for (i, point) in points.iter().enumerate() {
            counts[assignment[i]] += 1; // bounds: assignments are < k and points have dim axes
            for (axis, &x) in point.iter().enumerate() {
                sums[assignment[i]][axis] += x; // bounds: assignments are < k and points have dim axes
            }
        }
        for c in 0..k {
            // bounds: c < k = counts.len()
            if counts[c] == 0 {
                // bounds: c < k sizes counts, sums and centers
                let farthest = (0..n)
                    .filter(|&i| counts[assignment[i]] > 1) // bounds: assignments are < k; i ranges over 0..n
                    .max_by(|&a, &b| {
                        squared_distance(&points[a], &centers[assignment[a]]) // bounds: a, b < n and assignments are < k
                            .total_cmp(&squared_distance(&points[b], &centers[assignment[b]]))
                    });
                if let Some(i) = farthest {
                    counts[assignment[i]] -= 1; // bounds: i < n and c < k index assignment/counts/centers
                    counts[c] = 1;
                    assignment[i] = c; // bounds: i < n and c < k index assignment/counts/centers
                    centers[c] = points[i].clone();
                    changed = true;
                }
            } else {
                for axis in 0..dim {
                    centers[c][axis] = sums[c][axis] / counts[c] as f64; // bounds: c < k and axis < dim size the center buffers
                }
            }
        }
        if !changed {
            break;
        }
    }
    assignment
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    fn correlated_sample() -> Vec<Histogram> {
        // Bins {0,1} move together, bins {2,3} move together (opposite).
        vec![
            h(&[0.4, 0.4, 0.1, 0.1]),
            h(&[0.35, 0.35, 0.15, 0.15]),
            h(&[0.1, 0.1, 0.4, 0.4]),
            h(&[0.15, 0.15, 0.35, 0.35]),
            h(&[0.25, 0.25, 0.25, 0.25]),
        ]
    }

    #[test]
    fn first_component_captures_dominant_variance() {
        let decomposition = pca(&correlated_sample(), 2).unwrap();
        assert!(!decomposition.components.is_empty());
        let v = &decomposition.components[0];
        // The dominant direction contrasts {0,1} against {2,3}:
        // same sign within each pair, opposite across.
        assert!(v[0] * v[1] > 0.0);
        assert!(v[2] * v[3] > 0.0);
        assert!(v[0] * v[2] < 0.0);
        // Eigenvalues descending.
        if decomposition.eigenvalues.len() > 1 {
            assert!(decomposition.eigenvalues[0] >= decomposition.eigenvalues[1] - 1e-12);
        }
    }

    #[test]
    fn guided_reduction_groups_correlated_bins() {
        let mut rng = StdRng::seed_from_u64(11);
        let r = pca_guided_reduction(&correlated_sample(), 2, 2, &mut rng).unwrap();
        assert_eq!(r.target_of(0), r.target_of(1));
        assert_eq!(r.target_of(2), r.target_of(3));
        assert_ne!(r.target_of(0), r.target_of(2));
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(pca_guided_reduction(&[], 2, 2, &mut rng).is_err());
        let sample = correlated_sample();
        assert!(pca_guided_reduction(&sample, 0, 2, &mut rng).is_err());
        assert!(pca_guided_reduction(&sample, 5, 2, &mut rng).is_err());
        assert!(pca(&sample[..1], 2).is_err());
    }

    #[test]
    fn components_are_orthonormal() {
        let decomposition = pca(&correlated_sample(), 3).unwrap();
        for (a, va) in decomposition.components.iter().enumerate() {
            let norm: f64 = va.iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-6);
            for vb in decomposition.components.iter().skip(a + 1) {
                let dot: f64 = va.iter().zip(vb).map(|(x, y)| x * y).sum();
                assert!(dot.abs() < 1e-5, "components not orthogonal: {dot}");
            }
        }
    }
}
