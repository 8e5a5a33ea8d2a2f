//! Seed -> inputs. The benchmark generates everything itself and hands the
//! program only the generated data.
//!
//! A workload is a *family* — generator parameters, the tiling class
//! templates and the sample the reduction is trained on, all fixed by
//! [`FAMILY_SEED`] — from which `--seed` draws the database, the queries
//! and the operation mix. Training on a fixed sample is what lets numbers
//! be compared across seeds: FB-All is a greedy local search, and trained
//! on each seed's own sample it lands on reductions whose selectivity
//! differs by up to 50 % (55 to 82 refinements per query on the tiling
//! family), which would drown every other effect. The set-up still does
//! the full training work every time.

use crate::metrics::Res;
use crate::spans::Tracer;
use emd_core::{CostMatrix, Histogram};
use emd_data::gaussian::{self, GaussianParams};
use emd_data::Dataset;
use emd_reduction::fb::{fb_all, FbOptions};
use emd_reduction::flow_sample::FlowSample;
use emd_reduction::kmedoids::kmedoids_reduction;
use emd_reduction::{CombiningReduction, ReducedEmd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Seeds what every `--seed` of a family shares.
pub const FAMILY_SEED: u64 = 0x00F1_E8ED;

/// The program-side training seed (k-medoids initialisation), the same
/// default `flexemd reduce` uses.
pub const TRAIN_SEED: u64 = 42;

/// Independent generator streams derived from one seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The 32-bin Gaussian corpus family (`emd_data::gaussian`): class centres
/// are spaced evenly along the chain, so only the per-object jitter depends
/// on the generator.
pub fn gaussian32(classes: usize, per_class: usize, rng: &mut StdRng) -> Dataset {
    let params = GaussianParams {
        dim: 32,
        num_classes: classes,
        per_class,
        ..GaussianParams::default()
    };
    gaussian::generate(&params, rng)
}

/// The family's training sample for the Gaussian workloads.
pub fn gaussian32_training_sample(classes: usize, size: usize) -> Vec<Histogram> {
    gaussian32(classes, size.div_ceil(classes), &mut rng(FAMILY_SEED, 1)).histograms
}

fn kmedoids(cost: &CostMatrix, d_red: usize, tracer: &Tracer) -> Res<CombiningReduction> {
    let _span = tracer.enter("reduction.kmedoids");
    Ok(kmedoids_reduction(cost, d_red, &mut StdRng::seed_from_u64(TRAIN_SEED))?.reduction)
}

/// k-medoids reduction of the ground distance (Section 3.3).
pub fn train_kmed(cost: &Arc<CostMatrix>, d_red: usize, tracer: &Tracer) -> Res<ReducedEmd> {
    Ok(ReducedEmd::new(cost, kmedoids(cost, d_red, tracer)?)?)
}

/// FB-All from the k-medoids start (Section 3.4): flow sample over
/// `sample` on one thread, k-medoids, then best-improvement reassignment.
pub fn train_fb_all(
    cost: &Arc<CostMatrix>,
    sample: &[Histogram],
    d_red: usize,
    tracer: &Tracer,
) -> Res<ReducedEmd> {
    let flows = {
        let _span = tracer.enter("reduction.flow_sample");
        FlowSample::from_histograms_parallel(sample, cost, 1)?
    };
    let start = kmedoids(cost, d_red, tracer)?;
    let reduction = {
        let _span = tracer.enter("reduction.fb_all");
        fb_all(start, &flows, cost, FbOptions::default()).reduction
    };
    Ok(ReducedEmd::new(cost, reduction)?)
}

/// Append a histogram's exact bits to an operation log.
pub fn log_histogram(log: &mut Vec<u8>, histogram: &Histogram) {
    for bin in histogram.bins() {
        log.extend_from_slice(&bin.to_bits().to_le_bytes());
    }
}

/// The request body of `POST /v1/knn` and `POST /v1/insert`: explicit
/// weights, printed so they parse back to the identical bits.
pub fn weights_body(histogram: &Histogram, k: Option<usize>) -> String {
    let weights: Vec<String> = histogram.bins().iter().map(|w| format!("{w}")).collect();
    match k {
        Some(k) => format!("{{\"weights\":[{}],\"k\":{k}}}", weights.join(",")),
        None => format!("{{\"weights\":[{}]}}", weights.join(",")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_store::json::{self, Value};

    #[test]
    fn streams_of_one_seed_differ_and_repeat() {
        use rand::Rng;
        let draw = |seed, stream| rng(seed, stream).gen_range(0.0..1.0);
        let a: f64 = draw(7, 1);
        assert_eq!(a, draw(7, 1));
        assert_ne!(a, draw(7, 2));
        assert_ne!(a, draw(8, 1));
    }

    #[test]
    fn training_sample_is_the_same_for_every_seed() {
        let a = gaussian32_training_sample(8, 64);
        assert_eq!(a.len(), 64);
        assert_eq!(a, gaussian32_training_sample(8, 64));
    }

    #[test]
    fn bodies_carry_the_exact_weights() {
        let histogram = gaussian32(2, 1, &mut rng(3, 0)).histograms.remove(0);
        let body = weights_body(&histogram, Some(10));
        let parsed = json::parse(&body).expect("valid JSON");
        let object = parsed.as_object().expect("object");
        assert_eq!(object.get("k"), Some(&Value::Number(10.0)));
        let weights: Vec<f64> = object["weights"]
            .as_array()
            .expect("array")
            .iter()
            .map(|v| match v {
                Value::Number(n) => *n,
                other => panic!("not a number: {other:?}"),
            })
            .collect();
        assert_eq!(weights, histogram.bins());
        assert!(!weights_body(&histogram, None).contains("\"k\""));
    }
}
