//! Fixed-pair microbenchmarks of the two kernels everything else calls:
//! the exact EMD (`emd_core::emd`, cold, and the same pairs through one
//! warm `EmdContext`) and the reduced EMD (`ReducedEmd::distance`).
//!
//! The pairs come from the family generators, never from `--seed`, at the
//! three problem sizes the repository cares about: 32 bins (the Gaussian
//! workloads), 48 bins (the tiling workload) and 96 bins (the paper's 12x8
//! tiling, too slow to run as a workload within the time cap but still the
//! size the solver is tuned for). Traced runs only.

use crate::inputs::{gaussian32, rng, train_kmed, FAMILY_SEED};
use crate::metrics::{Res, Values};
use crate::spans::Tracer;
use emd_core::{emd, emd_in_context, Budget, CostMatrix, EmdContext, Histogram};
use emd_data::tiling::{self, TilingParams};
use emd_data::Dataset;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const EMD_PAIRS: usize = 200;
const RED_EMD_PAIRS: usize = 10_000;

fn tiling_family(width: usize, height: usize) -> Dataset {
    let params = TilingParams {
        width,
        height,
        num_classes: 10,
        per_class: 20,
        ..TilingParams::default()
    };
    tiling::generate(&params, &mut rng(FAMILY_SEED, 3))
}

/// Pair `i` of a fixed, class-crossing pairing of `histograms`.
fn pair(histograms: &[Histogram], i: usize) -> (&Histogram, &Histogram) {
    let n = histograms.len();
    (&histograms[i % n], &histograms[(i * 7 + n / 2) % n])
}

fn measure(dataset: Dataset, d_red: usize, layers: &mut Values) -> Res<()> {
    let dim = dataset.dim();
    let cost: Arc<CostMatrix> = Arc::new(dataset.cost);
    let histograms = dataset.histograms;

    let started = Instant::now();
    for i in 0..EMD_PAIRS {
        let (x, y) = pair(&histograms, i);
        black_box(emd(black_box(x), black_box(y), &cost)?);
    }
    let cold = started.elapsed();

    let mut context = EmdContext::new();
    let budget = Budget::unlimited();
    let started = Instant::now();
    for i in 0..EMD_PAIRS {
        let (x, y) = pair(&histograms, i);
        black_box(emd_in_context(
            black_box(x),
            black_box(y),
            &cost,
            &budget,
            &mut context,
        )?);
    }
    let warm = started.elapsed();

    let reduced = train_kmed(&cost, d_red, &Tracer::new(false))?;
    let started = Instant::now();
    for i in 0..RED_EMD_PAIRS {
        let (x, y) = pair(&histograms, i);
        black_box(reduced.distance(black_box(x), black_box(y))?);
    }
    let red = started.elapsed();

    let per_us = |elapsed: std::time::Duration, n: usize| elapsed.as_secs_f64() * 1e6 / n as f64;
    layers.set(&format!("core.emd_cold_us.d{dim}"), per_us(cold, EMD_PAIRS));
    layers.set(&format!("core.emd_warm_us.d{dim}"), per_us(warm, EMD_PAIRS));
    layers.set(
        &format!("reduction.red_emd_eval_us.d{d_red}"),
        per_us(red, RED_EMD_PAIRS),
    );
    Ok(())
}

pub fn run(layers: &mut Values) -> Res<()> {
    measure(gaussian32(8, 25, &mut rng(FAMILY_SEED, 3)), 8, layers)?;
    measure(tiling_family(8, 6), 12, layers)?;
    measure(tiling_family(12, 8), 24, layers)
}
