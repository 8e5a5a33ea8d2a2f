//! Small sampling helpers shared by the generators.
//!
//! Kept dependency-free (Box-Muller over `rand`'s uniform source) so the
//! workspace stays on its allowed dependency list.

use rand::Rng;

/// One standard normal sample via Box-Muller.
pub(crate) fn sample_normal(rng: &mut impl Rng) -> f64 {
    // float: tolerance — u1 bounded away from zero to avoid ln(0).
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let variance: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((variance - 1.0).abs() < 0.1, "variance {variance}");
    }
}
