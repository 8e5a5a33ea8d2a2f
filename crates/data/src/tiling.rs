//! RETINA-style synthetic corpus: spatial grid-tiling features.
//!
//! Simulates the application domain of reference \[14\] that the paper
//! generalizes: images carved into a `width x height` tiling (12x8 in
//! \[14\]), with one feature dimension per tile and a Euclidean ground
//! distance between tile centers.
//!
//! The generative model: every class owns a template of Gaussian blobs
//! ("lesions"/"structures") at fixed image positions; each instance
//! jitters the blob centers, weights and spreads, then splats the blob
//! mass onto the tiling and normalizes. Mass is therefore concentrated on
//! spatially *adjacent* tiles — the correlation structure that makes
//! cross-bin distances (and their reductions) meaningful.

use crate::dataset::Dataset;
use crate::util::sample_normal;
use emd_core::{ground, Histogram};
use rand::Rng;

/// Parameters of the tiling corpus generator.
#[derive(Debug, Clone)]
pub struct TilingParams {
    /// Tiles per row (default 12, as in \[14\]).
    pub width: usize,
    /// Tiles per column (default 8).
    pub height: usize,
    /// Number of object classes.
    pub num_classes: usize,
    /// Objects generated per class.
    pub per_class: usize,
    /// Gaussian blobs per class template.
    pub blobs_per_class: usize,
    /// Standard deviation (in tiles) of per-instance blob center jitter.
    pub center_jitter: f64,
    /// Base spatial spread (in tiles) of each blob.
    pub blob_sigma: f64,
}

impl Default for TilingParams {
    fn default() -> Self {
        TilingParams {
            width: 12,
            height: 8,
            num_classes: 10,
            per_class: 100,
            blobs_per_class: 3,
            center_jitter: 0.8,
            blob_sigma: 1.2,
        }
    }
}

/// Generate a tiling corpus. Deterministic for a fixed RNG.
#[allow(clippy::expect_used)]
pub fn generate(params: &TilingParams, rng: &mut impl Rng) -> Dataset {
    let TilingParams {
        width,
        height,
        num_classes,
        per_class,
        blobs_per_class,
        center_jitter,
        blob_sigma,
    } = *params;
    assert!(width > 0 && height > 0 && num_classes > 0 && blobs_per_class > 0);

    // Class templates: blob centers and weights.
    let templates: Vec<Vec<(f64, f64, f64)>> = (0..num_classes)
        .map(|_| {
            (0..blobs_per_class)
                .map(|_| {
                    (
                        rng.gen_range(0.0..width as f64),
                        rng.gen_range(0.0..height as f64),
                        rng.gen_range(0.5..1.5),
                    )
                })
                .collect()
        })
        .collect();

    let dim = width * height;
    let mut histograms = Vec::with_capacity(num_classes * per_class);
    let mut labels = Vec::with_capacity(num_classes * per_class);
    let mut bins = vec![0.0f64; dim];
    for (class, template) in templates.iter().enumerate() {
        for _ in 0..per_class {
            bins.iter_mut().for_each(|b| *b = 0.0);
            for &(cx, cy, weight) in template {
                let x = sample_normal(rng).mul_add(center_jitter, cx);
                let y = sample_normal(rng).mul_add(center_jitter, cy);
                let sigma = blob_sigma * rng.gen_range(0.8..1.25);
                let w = weight * rng.gen_range(0.7..1.3);
                splat(&mut bins, width, height, x, y, sigma, w);
            }
            // A faint uniform floor keeps pathological all-zero instances
            // impossible and mimics sensor background.
            for b in bins.iter_mut() {
                *b += 1e-4;
            }
            histograms
                // lint: allow(panic): the additive floor guarantees strictly positive mass
                .push(Histogram::normalized(bins.clone()).expect("floor guarantees mass"));
            labels.push(class as u32);
        }
    }

    Dataset {
        name: format!("tiling-{width}x{height}"),
        histograms,
        labels,
        cost: ground::grid2(width, height, ground::Metric::Euclidean)
            // lint: allow(panic): generator parameters guarantee non-zero grid sides
            .expect("valid grid dimensions"),
        positions: Some(ground::grid2_positions(width, height)),
    }
}

/// Splat a Gaussian blob onto the tiling (truncated at 3 sigma).
fn splat(bins: &mut [f64], width: usize, height: usize, x: f64, y: f64, sigma: f64, weight: f64) {
    let radius = (3.0 * sigma).ceil() as isize;
    let cx = x.round() as isize;
    let cy = y.round() as isize;
    let inv = 1.0 / (2.0 * sigma * sigma);
    for ty in (cy - radius).max(0)..=(cy + radius).min(height as isize - 1) {
        for tx in (cx - radius).max(0)..=(cx + radius).min(width as isize - 1) {
            let dx = tx as f64 - x;
            let dy = ty as f64 - y;
            bins[ty as usize * width + tx as usize] +=
                weight * (-dx.mul_add(dx, dy * dy) * inv).exp();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_params() -> TilingParams {
        TilingParams {
            width: 6,
            height: 4,
            num_classes: 3,
            per_class: 5,
            blobs_per_class: 2,
            blob_sigma: 0.8,
            ..TilingParams::default()
        }
    }

    #[test]
    fn generates_consistent_dataset() {
        let mut rng = StdRng::seed_from_u64(1);
        let dataset = generate(&small_params(), &mut rng);
        assert_eq!(dataset.len(), 15);
        assert_eq!(dataset.dim(), 24);
        dataset.validate().unwrap();
        assert!(dataset.cost.is_metric());
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&small_params(), &mut StdRng::seed_from_u64(7));
        let b = generate(&small_params(), &mut StdRng::seed_from_u64(7));
        assert_eq!(a.histograms, b.histograms);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn mass_is_spatially_concentrated() {
        // With few blobs, a handful of tiles should carry most mass.
        let mut rng = StdRng::seed_from_u64(3);
        let dataset = generate(&small_params(), &mut rng);
        for h in &dataset.histograms {
            let mut masses: Vec<f64> = h.bins().to_vec();
            masses.sort_by(|a, b| b.total_cmp(a));
            let top_quarter: f64 = masses[..masses.len() / 4].iter().sum();
            assert!(
                top_quarter > 0.5,
                "top quarter of tiles carries {top_quarter}"
            );
        }
    }

    #[test]
    fn same_class_objects_are_closer_on_average() {
        let mut rng = StdRng::seed_from_u64(5);
        let dataset = generate(&small_params(), &mut rng);
        let mut within = (0.0, 0usize);
        let mut across = (0.0, 0usize);
        for i in 0..dataset.len() {
            for j in (i + 1)..dataset.len() {
                let d = emd_core::emd(
                    &dataset.histograms[i],
                    &dataset.histograms[j],
                    &dataset.cost,
                )
                .unwrap();
                if dataset.labels[i] == dataset.labels[j] {
                    within = (within.0 + d, within.1 + 1);
                } else {
                    across = (across.0 + d, across.1 + 1);
                }
            }
        }
        let mean_within = within.0 / within.1 as f64;
        let mean_across = across.0 / across.1 as f64;
        assert!(
            mean_within < mean_across,
            "within {mean_within} !< across {mean_across}"
        );
    }
}
